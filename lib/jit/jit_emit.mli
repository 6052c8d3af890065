(** Lowers a fused kernel ({!Functs_core.Codegen.kernel}) to one C
    function and computes the launch layout the driver binds against.
    The JIT driver compiles the functions with [cc] and loads them with
    dlopen.

    The function runs one loop nest per {e nest}: map statements of
    rank >= 2 that share their outer extents and read each other at
    identity outer indices share one loop over those dimensions, each
    computing its innermost row into a C local array that later members
    read.  Only statements that are stored, or read from another nest,
    write memory ([e_stmts]); an unstored identity copy of a member emits
    nothing.  Reductions, rank 0 and 1 statements and statements that
    read a member any other way get a nest of their own.  Every element
    still runs the interpreter's IEEE operations in its order.

    The function is shape-generic.  Literal in the text: each
    statement's innermost extent (with its unit output stride, so the
    contiguous variant vectorises) and every reduction extent.  Read
    from [ints] at nest entry: every outer extent; the dense output
    strides and the launch guard's extent terms are computed from them.
    No other shape-dependent text reaches the source, so graphs that
    differ only in outer extents (a workload's serving buckets) emit
    identical [e_fn] and share one compiled artifact, whose digest keys
    on that text.  The layout ([e_shape], [e_ext], [e_bounds], ints
    positions) stays concrete per emission.

    The emitter is the only acceptance check for native kernels (affine
    index identifiers, root-only reductions, no [Copaque], concrete
    shapes); a group it rejects runs node by node.  Every scalar
    operation keeps the interpreter's exact IEEE and NaN semantics. *)

open Functs_ir
open Functs_core

type esite = {
  e_value : Graph.value;  (** the value this read site binds *)
  e_slot : int;
      (** site index; its buffer is [bufs.(Array.length e_stmts + slot)] *)
  e_rank : int;  (** number of index expressions (required tensor rank) *)
  e_nest : int;  (** owning nest index *)
  e_live : bool;
      (** the owning statement computes at least one element (the driver
          skips the bounds precheck otherwise) *)
  e_ints_pos : int;  (** ints position of [offset; strides.(0..rank-1)] *)
  e_bounds : (int * int) array option;
      (** per-dimension inclusive index ranges when statically known (the
          driver checks them against the bound tensor); [None] means the
          generated code guards the site itself because a free scalar
          appears in an index or the read sits under a condition *)
}

type estmt = {
  e_out : Graph.value;
  e_store : bool;
      (** escapes the kernel; [false] for a temporary another nest reads *)
  e_shape : int array;
      (** this emission's concrete output shape (the C text only holds
          its innermost extent) *)
  e_out_pos : int;  (** ints position of the output offset *)
}

type enest = {
  e_ext_pos : int;  (** ints position of the outer extents *)
  e_ext : int array;
      (** this emission's outer extents, which the driver writes at
          [e_ext_pos] *)
  e_rows : int;
      (** extent of the dimension a launch's [lo, hi) splits: the outer
          dim 0 (the only dim of a rank-1 nest; 1 at rank 0) *)
  e_numel : int;  (** elements its statements compute, local rows included *)
}

type emitted = {
  e_group : int;  (** fusion group id *)
  e_name : string;  (** kernel name, for artifact comments *)
  e_fn : string;
      (** body of the launch function
          [long k(double **bufs, const long *ints, long nest, long lo,
          long hi)]: nest [nest] over rows [lo, hi) of its outermost
          loop, or every nest at full extent when [nest = -1]; returns
          0, or nonzero when a guarded read would leave its buffer *)
  e_sites : esite array;
  e_stmts : estmt array;  (** the statements that write memory, in order *)
  e_nests : enest array;
  e_free : string array;  (** free scalar symbols, in ints-tail order *)
  e_scalar_pos : int;  (** ints position of the first free scalar *)
  e_nints : int;
      (** ints length up to the scalars; site [s]'s buffer length rides
          at [e_nints + s] *)
}

val nbufs : emitted -> int
(** Required length of the bufs array: memory statements then sites. *)

val emit : Codegen.kernel -> shapes:Shape_infer.result -> (emitted, string) result
(** Render one kernel, or explain why it cannot be JIT-compiled. *)
