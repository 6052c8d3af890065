(** Scalar element-wise functions shared by the tensor runtime and the IR.

    Both the pure operators ([aten::add]) and their in-place variants
    ([aten::add_]) apply one of these functions point-wise; keeping the
    enumeration in one place guarantees the functional rewrite uses exactly
    the semantics of the mutation it replaces. *)

type unary =
  | Neg
  | Abs
  | Exp
  | Log
  | Sqrt
  | Sigmoid
  | Tanh
  | Relu

type binary =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | Max
  | Min
  | Lt  (** 1.0 when [a < b], else 0.0 — comparisons yield mask tensors. *)
  | Gt
  | Eq

val exp : float -> float
(** The project's exp ([functs_exp.h]): within 1 ulp of glibc's, and the
    same bits in its scalar and vectorised C builds, so every path that
    evaluates [Exp] agrees with this one bit for bit.  A NaN comes back
    quieted with its sign and payload. *)

val sigmoid : float -> float
(** [1 / (1 + exp (-x))] on {!exp}; a NaN comes back quieted, sign and
    payload kept. *)

val tanh : float -> float
(** The project's tanh ([functs_exp.h]): an odd polynomial below
    [|x| = 0.55], [1 - 2 / (exp (2|x|) + 1)] on {!exp}'s reduction above,
    within 2 ulp of glibc's and the same bits in every C build, like
    {!exp}.  A NaN comes back quieted with its sign and payload. *)

val apply_unary : unary -> float -> float
val apply_binary : binary -> float -> float -> float

val unary_name : unary -> string
(** Lower-case ATen-style name, e.g. ["sigmoid"]. *)

val binary_name : binary -> string

val all_unary : unary list
val all_binary : binary list

val unary_flops : unary -> int
(** Approximate floating-point cost per element, for the GPU cost model. *)

val binary_flops : binary -> int
