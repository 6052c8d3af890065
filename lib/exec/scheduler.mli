(** Plan-order execution of a functionalized graph.

    The scheduler walks blocks like the reference interpreter, but:

    - each fusion group launches at its last member, either as one
      native C kernel ({!Functs_jit.Jit}) writing into pool buffers or
      node by node; a tuner picks the faster arm per group, and a group
      the JIT rejected — or whose kernel fails launch validation — runs
      node by node;
    - value liveness ({!Buffer_plan.analyze}) retires buffers to the
      storage pool at their last use, and an [immut::assign] whose base
      dies with it is {e donated}: the region is written in place instead
      of cloning the whole base (the paper's copy-elimination, done at
      runtime);
    - [immut::access] returns a zero-copy strided view — safe because
      donation requires the storage to have exactly one live reference;
    - loops the dependence analysis cleared ({!Loop_par}) run
      iteration-batched: at prepare time the body is compiled into an
      action table whose slice descriptors are fully resolved to frame
      slots, [Sliced] carried tensors become shared buffers written in
      place through one leaf write per recognized rebuild chain,
      [Reduced] carried tensors fold into fixed-size per-chunk partial
      accumulators merged in chunk order (bitwise-identical across
      domain counts); a body that passes a prepare-time check also gets
      a vectorised plan, which runs each statement once across every
      iteration; a tuner pins the vectorised plan, inline batching, the
      sequential body or — on two or more lanes — pool dispatch,
      whichever runs fastest (Algorithm 2's parallelization, executed
      for real);
    - [prim::If]/[prim::Loop] fall back to block-level dispatch, and
      graphs still containing [aten::…_] mutations run in a plain
      per-node mode with interpreter semantics (no pool, no donation).

    Caller tensors are marked foreign and are never donated or pooled. *)

open Functs_ir
open Functs_core
open Functs_interp

type prepared

val prepare :
  parallel:bool ->
  pool:Pool.t ->
  loop_grain:int ->
  kernel_grain:int ->
  graph:Graph.t ->
  shapes:Shape_infer.result ->
  plan:Fusion.plan ->
  prepared
(** Compile the plan's kernels and the liveness table.  [graph] must stay
    unmodified for the lifetime of the result.  [pool] is the persistent
    worker pool every dispatch goes through (the scheduler never spawns
    domains; its lane count alone decides whether loops may dispatch);
    [loop_grain] is the minimum trip count before a loop runs batched,
    [kernel_grain] the per-chunk element count for intra-kernel splits.
    Every group starts per-node; {!arm} adds native kernels.  Each
    group and each batched loop picks its arm with a {!Tuner}. *)

val arm : prepared -> (int * Functs_jit.Jit.entry) list -> int
(** Arm each listed group ([(group id, entry)], as
    {!Functs_jit.Jit.start_groups} returns them) with its native kernel
    and add the [c-jit] arm to its tuner ({!Tuner.add}); returns how
    many groups it armed.  Groups already armed, or unknown, are left
    as they are.  Callers serialize it with {!run}. *)

val output_shapes : prepared -> Shape_infer.shape option list
(** Statically inferred shapes of the graph's return values (in return
    order), as computed at prepare time.  The serving layer uses these to
    verify that a declared output batch axis really carries the bucket
    extent before gathering per-request results. *)

val run : prepared -> Value.t list -> Value.t list
(** Execute once.  The storage pool persists across runs; returned tensors
    are never recycled.  Not thread-safe — one run at a time.
    @raise Functs_interp.Eval.Runtime_error like the interpreter, and
    when a tensor argument's shape differs from the one the engine was
    prepared for. *)

type stats = {
  groups : int;  (** fusion groups in the plan *)
  kernel_runs : int;  (** kernel launches so far; equals [cjit_runs] *)
  pool_fresh : int;
  pool_reused : int;
  donations : int;  (** assigns executed in place *)
  parallel_loops_run : int;  (** batched loop executions (incl. reductions) *)
  reduction_loops_run : int;  (** batched executions of Reduction loops *)
  batched_loops : int;  (** loops with an iteration-batching plan *)
  vector_loops : int;
      (** batched loop executions on the vectorised arm, which runs each
          body statement once across every iteration (included in
          [parallel_loops_run]) *)
  cjit_groups : int;
      (** groups currently armed with a native (C) kernel — a tuner
          pin on the per-node arm keeps the group armed *)
  cjit_runs : int;  (** native kernel launches so far *)
  jit_fallbacks : int;
      (** launch-validation failures that demoted a group to per-node
          execution for good; the tuner's per-node-vs-[c-jit] choice is
          journaled as its pins and flips, not counted here *)
  loops_pinned_vector : int;  (** batched loops the tuner pinned vectorised *)
  loops_pinned_inline : int;  (** … pinned inline *)
  loops_pinned_dispatch : int;  (** … pinned to pool dispatch *)
  loops_pinned_seq : int;  (** … pinned back to the sequential fused path *)
  pool_lanes : int;  (** worker lanes in the shared domain pool *)
}
(** Counters are cumulative over the engine's lifetime; a caller that
    reports one run diffs two snapshots taken around it.  Dispatch
    counters live on the shared pool the engine runs on ({!Pool.dispatches}
    and its siblings); they count every engine using that pool. *)

val stats : prepared -> stats

type attribution_row = {
  at_id : int;  (** fusion-group gid, or the loop node's id *)
  at_kind : [ `Group | `Loop ];
  at_arm : string;
      (** the arm {!Tuner} currently pins — [c-jit]/[per_node] for
          groups, [vector]/[inline]/[dispatch]/[seq] for loops — or
          [sampling] while it samples *)
  at_members : int;  (** member instructions (groups) / body size (loops) *)
  at_ops : string list;
      (** distinct op names, namespace dropped, in order: the members of
          a group ([["matmul"]]) or the body of a loop *)
  at_time_s : float;  (** accumulated launch wall time *)
  at_launches : int;
}

val attribution : prepared -> attribution_row list
(** Per-group / per-batched-loop wall-time attribution, hottest first.
    Collected as a side effect of the auto-tuner's existing launch
    timing, so it costs nothing beyond normal dispatch; only sites that
    launched at least once appear. *)

val clear_buffers : prepared -> unit
(** Drop the storage pool's parked buffers (compile-cache eviction). *)
