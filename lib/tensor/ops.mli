(** Pure tensor operators: every function allocates fresh storage and never
    mutates an argument.  Binary operators broadcast numpy-style. *)

val unary : Scalar.unary -> Tensor.t -> Tensor.t
val binary : Scalar.binary -> Tensor.t -> Tensor.t -> Tensor.t

val add : Tensor.t -> Tensor.t -> Tensor.t
val sub : Tensor.t -> Tensor.t -> Tensor.t
val mul : Tensor.t -> Tensor.t -> Tensor.t
val div : Tensor.t -> Tensor.t -> Tensor.t
val neg : Tensor.t -> Tensor.t
val exp : Tensor.t -> Tensor.t
val sigmoid : Tensor.t -> Tensor.t
val tanh : Tensor.t -> Tensor.t
val relu : Tensor.t -> Tensor.t

val add_scalar : Tensor.t -> float -> Tensor.t

val matmul : Tensor.t -> Tensor.t -> Tensor.t
(** 2-d × 2-d matrix product, or batched 3-d × 3-d / 3-d × 2-d products
    with broadcasting over the leading batch dimension.  Each output
    element starts at [+0.0] and takes [acc := Float.fma a.(i,l) b.(l,j) acc]
    in ascending [l]: one rounding per term, the rule every engine
    kernel reproduces bit for bit.
    @raise Invalid_argument on incompatible inner dimensions. *)

val softmax : Tensor.t -> dim:int -> Tensor.t
(** Numerically stable softmax along [dim]. *)

val sum : Tensor.t -> Tensor.t
(** Sum of all elements as a 0-d tensor. *)

val sum_dim : Tensor.t -> dim:int -> keepdim:bool -> Tensor.t

val max_dim : Tensor.t -> dim:int -> keepdim:bool -> Tensor.t
(** Maximum values along [dim] (values only, like [aten::amax]). *)

val mean : Tensor.t -> Tensor.t

val cat : Tensor.t list -> dim:int -> Tensor.t
(** Concatenate along an existing dimension.
    @raise Invalid_argument on empty list or shape mismatch. *)

val stack : Tensor.t list -> dim:int -> Tensor.t
(** Concatenate along a fresh dimension. *)

val where : Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** [where cond a b] selects [a] where [cond <> 0.], else [b];
    all three broadcast together. *)

val cumsum : Tensor.t -> dim:int -> Tensor.t
