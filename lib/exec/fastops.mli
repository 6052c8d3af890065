(** Direct-storage implementations of the hot operators, used by the
    scheduler's per-node path instead of the interpreter's index-array
    loops.  Semantics (including floating-point accumulation order) match
    {!Functs_interp.Eval.apply_op} exactly; operators without a fast path
    fall back to it.

    Kernels get the engine's parallel-for as [?par]; operators computing
    at least two [kernel_grain]s of elements chunk their outer dimension
    across it (elementwise maps, matmul row tiles, softmax / reduction
    lanes), bitwise identical to sequential: every output element is
    written by exactly one chunk with reference accumulation order. *)

open Functs_ir
open Functs_tensor
open Functs_interp

type alloc := Shape.t -> Tensor.t
type par := Functs_jit.Jit.par

val clone : ?alloc:alloc -> ?par:par -> Tensor.t -> Tensor.t

val copy_into : ?par:par -> Tensor.t -> Tensor.t -> unit
(** [copy_into dst src] writes [src], broadcast to [dst]'s shape (a 0-d
    source fills), through [dst] on the strided engine; sources sharing
    [dst]'s storage, and shape errors, defer to {!Inplace.copy_}. *)

val unary : ?alloc:alloc -> ?par:par -> Scalar.unary -> Tensor.t -> Tensor.t

val binary :
  ?alloc:alloc -> ?par:par -> Scalar.binary -> Tensor.t -> Tensor.t -> Tensor.t

val where :
  ?alloc:alloc -> ?par:par -> Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t

(** {2 Destination passing}

    Write the op's result through [dst], whose shape must be the
    operands' broadcast shape.  [dst] may share storage with an operand
    only when it is exactly that operand's view. *)

val unary_into : ?par:par -> Tensor.t -> Scalar.unary -> Tensor.t -> unit

val binary_into :
  ?par:par -> Tensor.t -> Scalar.binary -> Tensor.t -> Tensor.t -> unit

val where_into :
  ?par:par -> Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t -> unit

val matmul : ?alloc:alloc -> ?par:par -> Tensor.t -> Tensor.t -> Tensor.t
val softmax : ?alloc:alloc -> ?par:par -> Tensor.t -> dim:int -> Tensor.t

val sum_dim :
  ?alloc:alloc -> ?par:par -> Tensor.t -> dim:int -> keepdim:bool -> Tensor.t
(** Exposed for the chunking tests. *)

val apply_op :
  ?alloc:alloc -> ?par:par -> Graph.node -> Value.t list -> Value.t list
(** Drop-in replacement for {!Eval.apply_op} on plain operators.  [alloc]
    supplies output buffers (the scheduler passes its engine's storage
    pool so per-node intermediates recycle); every fast-path operator
    overwrites the whole output, so recycled contents never leak.
    Without it, outputs are fresh zero-filled tensors. *)
