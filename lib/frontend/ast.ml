open Functs_tensor

type index = At of expr | Range of expr * expr

and fn =
  | Fn_matmul
  | Fn_softmax of int
  | Fn_sum_dim of int * bool
  | Fn_max_dim of int * bool
  | Fn_sum
  | Fn_mean
  | Fn_cat of int
  | Fn_stack of int
  | Fn_where
  | Fn_clone
  | Fn_cumsum of int
  | Fn_zeros of int array
  | Fn_ones of int array
  | Fn_full of int array
  | Fn_reshape of int array
  | Fn_permute of int array
  | Fn_expand of int array
  | Fn_unsqueeze of int
  | Fn_squeeze of int

and expr =
  | Var of string
  | Int_lit of int
  | Float_lit of float
  | Bool_lit of bool
  | Unop of Scalar.unary * expr
  | Binop of Scalar.binary * expr * expr
  | Subscript of expr * index list
  | Call of fn * expr list

type stmt =
  | Assign of string * expr
  | Store of expr * expr
  | Aug of string * Scalar.binary * expr
  | Aug_store of expr * Scalar.binary * expr
  | Fill of expr * float
  | If of expr * stmt list * stmt list
  | For of string * expr * stmt list
  | Return of expr list

type program = {
  name : string;
  params : (string * Functs_ir.Dtype.t) list;
  body : stmt list;
}

let var s = Var s
let i n = Int_lit n
let f x = Float_lit x
let ( + ) a b = Binop (Scalar.Add, a, b)
let ( - ) a b = Binop (Scalar.Sub, a, b)
let ( * ) a b = Binop (Scalar.Mul, a, b)
let ( / ) a b = Binop (Scalar.Div, a, b)
let ( < ) a b = Binop (Scalar.Lt, a, b)
let ( > ) a b = Binop (Scalar.Gt, a, b)
let ( = ) a b = Binop (Scalar.Eq, a, b)
let neg e = Unop (Scalar.Neg, e)
let exp e = Unop (Scalar.Exp, e)
let sigmoid e = Unop (Scalar.Sigmoid, e)
let tanh e = Unop (Scalar.Tanh, e)
let relu e = Unop (Scalar.Relu, e)
let sqrt e = Unop (Scalar.Sqrt, e)
let item x idx = Subscript (x, [ At idx ])
let range_ x a b = Subscript (x, [ Range (a, b) ])
let sub2 x a b = Subscript (x, [ At a; At b ])
let matmul a b = Call (Fn_matmul, [ a; b ])
let softmax x ~dim = Call (Fn_softmax dim, [ x ])
let clone x = Call (Fn_clone, [ x ])
let cat xs ~dim = Call (Fn_cat dim, xs)
let stack xs ~dim = Call (Fn_stack dim, xs)
let where c a b = Call (Fn_where, [ c; a; b ])
let sum_dim x ~dim ~keepdim = Call (Fn_sum_dim (dim, keepdim), [ x ])
let max_dim x ~dim ~keepdim = Call (Fn_max_dim (dim, keepdim), [ x ])
let zeros shape = Call (Fn_zeros shape, [])
let ones shape = Call (Fn_ones shape, [])
let reshape x shape = Call (Fn_reshape shape, [ x ])
let permute x dims = Call (Fn_permute dims, [ x ])
let expand x sizes = Call (Fn_expand sizes, [ x ])
let unsqueeze x dim = Call (Fn_unsqueeze dim, [ x ])
let squeeze x dim = Call (Fn_squeeze dim, [ x ])
let ( := ) name e = Assign (name, e)
let ( <-- ) target e = Store (target, e)
let incr_ name e = Aug (name, Scalar.Add, e)
let if_ cond then_ else_ = If (cond, then_, else_)
let for_ name trip body = For (name, trip, body)
let return_ es = Return es
let tensor_param name = (name, Functs_ir.Dtype.Tensor)
let int_param name = (name, Functs_ir.Dtype.Scalar Functs_ir.Dtype.Int)
