type unary = Neg | Abs | Exp | Log | Sqrt | Sigmoid | Tanh | Relu
type binary = Add | Sub | Mul | Div | Pow | Max | Min | Lt | Gt | Eq

external exp : float -> float = "functs_exp_byte" "functs_exp_unboxed"
[@@unboxed] [@@noalloc]

external sigmoid : float -> float
  = "functs_sigmoid_byte" "functs_sigmoid_unboxed"
[@@unboxed] [@@noalloc]

external tanh : float -> float = "functs_tanh_byte" "functs_tanh_unboxed"
[@@unboxed] [@@noalloc]

let apply_unary = function
  | Neg -> fun x -> -.x
  | Abs -> Float.abs
  | Exp -> exp
  | Log -> Float.log
  | Sqrt -> Float.sqrt
  | Sigmoid -> sigmoid
  | Tanh -> tanh
  | Relu -> fun x -> Float.max 0.0 x

let apply_binary = function
  | Add -> ( +. )
  | Sub -> ( -. )
  | Mul -> ( *. )
  | Div -> ( /. )
  | Pow -> Float.pow
  | Max -> Float.max
  | Min -> Float.min
  | Lt -> fun a b -> if a < b then 1.0 else 0.0
  | Gt -> fun a b -> if a > b then 1.0 else 0.0
  | Eq -> fun a b -> if Float.equal a b then 1.0 else 0.0

let unary_name = function
  | Neg -> "neg"
  | Abs -> "abs"
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Sigmoid -> "sigmoid"
  | Tanh -> "tanh"
  | Relu -> "relu"

let binary_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Pow -> "pow"
  | Max -> "maximum"
  | Min -> "minimum"
  | Lt -> "lt"
  | Gt -> "gt"
  | Eq -> "eq"

let all_unary = [ Neg; Abs; Exp; Log; Sqrt; Sigmoid; Tanh; Relu ]
let all_binary = [ Add; Sub; Mul; Div; Pow; Max; Min; Lt; Gt; Eq ]

let unary_flops = function
  | Neg | Abs | Relu -> 1
  | Sqrt -> 4
  | Exp | Log | Sigmoid | Tanh -> 8

let binary_flops = function
  | Add | Sub | Mul | Max | Min | Lt | Gt | Eq -> 1
  | Div -> 4
  | Pow -> 12
