(** In-place mutation operators ([aten::copy_], [aten::add_], …).

    Every function writes through its destination view into the shared
    storage, mutating all aliases — these are exactly the [Mutate(v, w)]
    operators of Definition 3.2 that TensorSSA eliminates.  Each function
    returns the destination tensor (as ATen does), so IR-level mutation
    nodes have an output value aliasing their first input. *)

val copy_ : Tensor.t -> Tensor.t -> Tensor.t
(** [copy_ dst src] overwrites [dst] element-wise with [src] broadcast to
    [dst]'s shape. *)

val fill_ : Tensor.t -> float -> Tensor.t

val unary_ : Scalar.unary -> Tensor.t -> Tensor.t
(** E.g. [unary_ Sigmoid] is [aten::sigmoid_]. *)

val binary_ : Scalar.binary -> Tensor.t -> Tensor.t -> Tensor.t
(** [binary_ fn dst src] is [dst.fn_(src)] with [src] broadcast to [dst]. *)

val add_ : Tensor.t -> Tensor.t -> Tensor.t
val relu_ : Tensor.t -> Tensor.t
