(** Lowers a fused kernel ({!Functs_core.Codegen.kernel}) to one C
    function — a flat loop nest per statement, element access over
    caller-bound [double] buffers — and computes the launch layout the
    driver binds against.  The JIT driver compiles the functions with
    [cc] and loads them with dlopen.

    The function is shape-generic.  Literal in the text: each
    statement's innermost extent (with its unit output stride, so the
    contiguous variant vectorises) and every reduction extent.  Read
    from [ints] at statement entry: every outer extent; the dense
    output strides and the launch guard's extent terms are computed
    from them.  No other shape-dependent text reaches the source, so
    graphs that differ only in outer extents (a workload's serving
    buckets) emit identical [e_fn] and share one compiled artifact,
    whose digest keys on that text.  The layout ([e_shape],
    [e_bounds], ints positions) stays concrete per emission.

    The emitter is the only acceptance check for native kernels (affine
    index identifiers, root-only reductions, no [Copaque], concrete
    shapes); a group it rejects runs node by node.  Every scalar
    operation keeps the interpreter's exact IEEE and NaN semantics. *)

open Functs_ir
open Functs_core

type esite = {
  e_value : Graph.value;  (** the value this read site binds *)
  e_slot : int;  (** site index; its buffer is [bufs.(nstmts + slot)] *)
  e_rank : int;  (** number of index expressions (required tensor rank) *)
  e_stmt : int;  (** owning statement index *)
  e_ints_pos : int;  (** ints position of [offset; strides.(0..rank-1)] *)
  e_bounds : (int * int) array option;
      (** per-dimension inclusive index ranges when statically known (the
          driver checks them against the bound tensor); [None] means the
          generated code guards the site itself because a free scalar
          appears in an index or the read sits under a condition *)
}

type estmt = {
  e_out : Graph.value;
  e_store : bool;  (** escapes the kernel (vs. a local temporary) *)
  e_shape : int array;
      (** this emission's concrete output shape (the C text only holds
          its innermost extent) *)
  e_out_pos : int;  (** ints position of the output offset *)
  e_ext_pos : int;
      (** ints position of the extents of dims [0..rank-2], which the
          driver fills from [e_shape] *)
}

type emitted = {
  e_group : int;  (** fusion group id *)
  e_name : string;  (** kernel name, for artifact comments *)
  e_fn : string;
      (** body of the launch function
          [long k(double **bufs, const long *ints, long stmt, long lo,
          long hi)]: statement [stmt] over rows [lo, hi) of its outermost
          loop, or every statement at full extent when
          [stmt = -1]; returns 0, or nonzero when a guarded read would
          leave its buffer *)
  e_sites : esite array;
  e_stmts : estmt array;
  e_free : string array;  (** free scalar symbols, in ints-tail order *)
  e_scalar_pos : int;  (** ints position of the first free scalar *)
  e_nints : int;
      (** ints length up to the scalars; site [s]'s buffer length rides
          at [e_nints + s] *)
}

val nbufs : emitted -> int
(** Required length of the bufs array: statement outputs then sites. *)

val emit : Codegen.kernel -> shapes:Shape_infer.result -> (emitted, string) result
(** Render one kernel, or explain why it cannot be JIT-compiled. *)
