open Functs_tensor

type view_kind =
  | Identity
  | Select of { dim : int }
  | Slice of { dim : int; step : int }
  | Reshape of { shape : int array }
  | Permute of { dims : int array }
  | Expand of { sizes : int array }
  | Unsqueeze of { dim : int }
  | Squeeze of { dim : int }

let view_kind_name = function
  | Identity -> "identity"
  | Select _ -> "select"
  | Slice _ -> "slice"
  | Reshape _ -> "reshape"
  | Permute _ -> "permute"
  | Expand _ -> "expand"
  | Unsqueeze _ -> "unsqueeze"
  | Squeeze _ -> "squeeze"

let int_array_to_string arr =
  "[" ^ String.concat ", " (Array.to_list arr |> List.map string_of_int) ^ "]"

let view_kind_to_string = function
  | Identity -> "[]"
  | Select { dim } -> Printf.sprintf "select(dim=%d)" dim
  | Slice { dim; step } -> Printf.sprintf "slice(dim=%d, step=%d)" dim step
  | Reshape { shape } -> Printf.sprintf "reshape%s" (int_array_to_string shape)
  | Permute { dims } -> Printf.sprintf "permute%s" (int_array_to_string dims)
  | Expand { sizes } -> Printf.sprintf "expand%s" (int_array_to_string sizes)
  | Unsqueeze { dim } -> Printf.sprintf "unsqueeze(dim=%d)" dim
  | Squeeze { dim } -> Printf.sprintf "squeeze(dim=%d)" dim

type mutate_kind =
  | Mut_copy
  | Mut_fill
  | Mut_unary of Scalar.unary
  | Mut_binary of Scalar.binary

type const = Cfloat of float | Cint of int | Cbool of bool

type t =
  | Constant of const
  | If
  | Loop
  | List_construct
  | List_index
  | Scalar_binary of Scalar.binary
  | Unary of Scalar.unary
  | Binary of Scalar.binary
  | Matmul
  | Softmax of { dim : int }
  | Sum
  | Sum_dim of { dim : int; keepdim : bool }
  | Max_dim of { dim : int; keepdim : bool }
  | Mean
  | Cat of { dim : int }
  | Stack of { dim : int }
  | Where
  | Cumsum of { dim : int }
  | Clone
  | Zeros of { shape : int array }
  | Ones of { shape : int array }
  | Full of { shape : int array }
  | Arange
  | View of view_kind
  | Mutate of mutate_kind
  | Access of view_kind
  | Assign of view_kind
  | Update

let mutation_attr = function
  | Mut_copy -> "copy_"
  | Mut_fill -> "fill_"
  | Mut_unary u -> Scalar.unary_name u ^ "_"
  | Mut_binary b -> Scalar.binary_name b ^ "_"

let name = function
  | Constant _ -> "prim::Constant"
  | If -> "prim::If"
  | Loop -> "prim::Loop"
  | List_construct -> "prim::ListConstruct"
  | List_index -> "aten::__getitem__"
  | Scalar_binary b -> "prim::" ^ Scalar.binary_name b
  | Unary u -> "aten::" ^ Scalar.unary_name u
  | Binary b -> "aten::" ^ Scalar.binary_name b
  | Matmul -> "aten::matmul"
  | Softmax _ -> "aten::softmax"
  | Sum -> "aten::sum"
  | Sum_dim _ -> "aten::sum_dim"
  | Max_dim _ -> "aten::amax"
  | Mean -> "aten::mean"
  | Cat _ -> "aten::cat"
  | Stack _ -> "aten::stack"
  | Where -> "aten::where"
  | Cumsum _ -> "aten::cumsum"
  | Clone -> "aten::clone"
  | Zeros _ -> "aten::zeros"
  | Ones _ -> "aten::ones"
  | Full _ -> "aten::full"
  | Arange -> "aten::arange"
  | View k -> "aten::" ^ view_kind_name k
  | Mutate m -> "aten::" ^ mutation_attr m
  | Access k -> "immut::" ^ view_kind_name k
  | Assign _ -> "immut::assign"
  | Update -> "tssa::update"

let is_view = function
  | View _ -> true
  | Constant _ | If | Loop | List_construct | List_index | Scalar_binary _
  | Unary _ | Binary _ | Matmul | Softmax _ | Sum | Sum_dim _ | Max_dim _
  | Mean | Cat _ | Stack _ | Where | Cumsum _ | Clone | Zeros _ | Ones _
  | Full _ | Arange | Mutate _ | Access _ | Assign _ | Update ->
      false

let is_mutation = function Mutate _ -> true | _ -> false
let is_control_flow = function If | Loop -> true | _ -> false
let has_side_effect = function Mutate _ -> true | _ -> false
