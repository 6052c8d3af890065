(** Direct-storage implementations of the hot operators, used by the
    scheduler's per-node path instead of the interpreter's index-array
    loops.  Semantics (including floating-point accumulation order) match
    {!Functs_interp.Eval.apply_op} exactly; operators without a fast path
    fall back to it. *)

open Functs_ir
open Functs_tensor
open Functs_interp

val set_parallel : Pool.t option -> grain:int -> unit
(** Enable intra-kernel data parallelism: operators whose output exceeds
    two [grain]s of elements chunk their outer dimension across the pool
    (elementwise maps, matmul row tiles, softmax / reduction lanes).
    Chunked execution is bitwise identical to sequential — every output
    element is written by exactly one chunk with reference accumulation
    order.  [None] (the initial state) forces sequential execution.
    Rebound by [Scheduler.run] on every engine invocation. *)

val clone : ?alloc:(Shape.t -> Tensor.t) -> Tensor.t -> Tensor.t

val copy_into : Tensor.t -> Tensor.t -> unit
(** [copy_into dst src] writes [src], broadcast to [dst]'s shape (a 0-d
    source fills), through [dst] on the strided engine; sources sharing
    [dst]'s storage, and shape errors, defer to {!Inplace.copy_}. *)

val unary : ?alloc:(Shape.t -> Tensor.t) -> Scalar.unary -> Tensor.t -> Tensor.t

val binary :
  ?alloc:(Shape.t -> Tensor.t) -> Scalar.binary -> Tensor.t -> Tensor.t -> Tensor.t

val where :
  ?alloc:(Shape.t -> Tensor.t) -> Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t

(** {2 Destination passing}

    Write the op's result through [dst], whose shape must be the
    operands' broadcast shape.  [dst] may share storage with an operand
    only when it is exactly that operand's view. *)

val unary_into : Tensor.t -> Scalar.unary -> Tensor.t -> unit
val binary_into : Tensor.t -> Scalar.binary -> Tensor.t -> Tensor.t -> unit
val where_into : Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t -> unit

val matmul : ?alloc:(Shape.t -> Tensor.t) -> Tensor.t -> Tensor.t -> Tensor.t
val softmax : ?alloc:(Shape.t -> Tensor.t) -> Tensor.t -> dim:int -> Tensor.t

val sum_dim :
  ?alloc:(Shape.t -> Tensor.t) -> Tensor.t -> dim:int -> keepdim:bool -> Tensor.t
(** Exposed for the pool's bitwise-equivalence tests. *)

val apply_op :
  ?alloc:(Shape.t -> Tensor.t) -> Graph.node -> Value.t list -> Value.t list
(** Drop-in replacement for {!Eval.apply_op} on plain operators.  [alloc]
    supplies output buffers (the scheduler passes its engine's storage
    pool so per-node intermediates recycle); every fast-path operator
    overwrites the whole output, so recycled contents never leak.
    Without it, outputs are fresh zero-filled tensors. *)
