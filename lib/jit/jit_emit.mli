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

    A 2-D matmul statement ([Codegen.Cmatmul]) gets a nest of its own
    that calls the unit's GEMM ([gemm_kernel.h], {!Jit.render_source})
    over row-major operands: its operand sites are [e_dense], its row
    count is the nest's outer extent, and its reduction and column
    extents are literal; the kernel's [e_gemm] names that layout.

    The emitter is the only acceptance check for native kernels (affine
    index identifiers, root-only reductions and matmuls, no [Copaque],
    concrete shapes); a group it rejects runs node by node.  Every
    scalar operation keeps the interpreter's exact IEEE and NaN
    semantics.  {!emit_loop} lowers a whole sequential loop over
    emitted kernels to one more function (see {e Loop kernels} below). *)

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
  e_dense : bool;
      (** read as one row-major block (a matmul operand): the driver
          requires the bound tensor to be contiguous *)
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

type egemm = {
  g_a : int;  (** site slot of the left operand *)
  g_b : int;  (** site slot of the right operand *)
  g_k : int;  (** reduction extent (literal in the text) *)
  g_n : int;  (** column extent (literal in the text) *)
  g_m_pos : int;  (** ints position of the row count *)
}
(** The layout of a kernel that is one 2-D matmul. *)

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
  e_gemm : egemm option;  (** [Some] when the kernel is one matmul *)
}

val nbufs : emitted -> int
(** Required length of the bufs array: memory statements then sites. *)

val emit : Codegen.kernel -> shapes:Shape_infer.result -> (emitted, string) result
(** Render one kernel, or explain why it cannot be JIT-compiled. *)

(** {1 Loop kernels}

    A [Sequential] loop whose body is made of emitted group kernels,
    views of loop-invariant values and row writes
    [immut::assign[select(dim=0)](carried, v, i)] of a carried value
    (its only use, and the slot's update) lowers to one C function
    behind the same launch ABI: [t] is a C loop variable, each member
    kernel is called once per step over its own [bufs]/[ints] block
    (the entries that name a carried value are re-pointed each step,
    and the step symbol is written into its scalar slot), a matmul
    member runs the unit's GEMM — over panels packed once at entry when
    its weight is bound outside the loop — and a row write stores
    straight into the carried buffer.  Every other carried value is
    double-buffered, and its final value is copied to the loop's
    output.  The text is shape-generic: the step count, carried sizes
    and member extents are [ints] entries. *)

type lref =
  | Lcur of int  (** carried slot [j]'s value as the step reads it *)
  | Lnext of int  (** the value carried slot [j] becomes *)
  | Lscratch of int  (** a body value kept in scratch buffer [k] *)
  | Lfixed  (** bound once per launch from outside the loop *)

type lmember = {
  lm_em : emitted;  (** the group kernel *)
  lm_fn : int;  (** the unit's index of that kernel *)
  lm_buf0 : int;  (** first launch-[bufs] entry of its block *)
  lm_int0 : int;  (** first launch-[ints] entry of its block *)
  lm_refs : lref array;  (** what each of its block's [bufs] entries names *)
  lm_packed : int option;  (** launch-[bufs] entry of its packed weight *)
}

type lcarry =
  | Ldouble of {
      d_param : Graph.value;
      d_next : Graph.value;
      d_shape : int array;
      d_buf : int;
          (** [bufs]: the two step buffers at [d_buf], [d_buf + 1], the
              loop output at [d_buf + 2] *)
      d_int : int;  (** [ints]: numel at [d_int], output offset at [d_int + 1] *)
    }
  | Lrow of {
      r_shape : int array;
      r_buf : int;  (** [bufs]: the buffer the rows are written into *)
      r_int : int;  (** [ints]: its offset at [r_int], row numel at [r_int + 1] *)
    }

type eloop = {
  l_node : int;  (** the loop node's id *)
  l_induction : string;  (** the step's scalar symbol *)
  l_fn : string;  (** body of the launch function; [ints[0]] is the step count *)
  l_members : lmember array;  (** in launch order *)
  l_carries : lcarry array;  (** per carried slot *)
  l_scratch : (Graph.value * int array * int) array;
      (** body values a later member reads: value, shape, [bufs] entry *)
  l_packed_len : int array;  (** doubles per packed weight *)
  l_packed_buf0 : int;  (** [bufs] entry of the first packed weight *)
  l_nbufs : int;
  l_nints : int;
}

val emit_loop :
  Graph.t ->
  Graph.node ->
  plan:Fusion.plan ->
  shapes:Shape_infer.result ->
  groups:(int * int * emitted) list ->
  (eloop, string) result
(** [emit_loop g loop ~plan ~shapes ~groups] lowers a loop whose every
    group has an entry [(gid, unit index, kernel)] in [groups], or
    explains why the loop does not qualify. *)
