(** Plan-order execution of a functionalized graph.

    The scheduler walks blocks like the reference interpreter, but:

    - each fusion group launches at its last member: as one native C
      kernel ({!Functs_jit.Jit}) writing into pool buffers once {!arm}
      gives it one, and node by node otherwise — before arming, when the
      JIT rejected the group, and for good once its kernel fails launch
      validation;
    - value liveness ({!Buffer_plan.analyze}) retires buffers to the
      storage pool at their last use, and an [immut::assign] whose base
      dies with it is {e donated}: the region is written in place instead
      of cloning the whole base (the paper's copy-elimination, done at
      runtime);
    - [immut::access] returns a zero-copy strided view — safe because
      donation requires the storage to have exactly one live reference;
    - [Parallel] loops ({!Loop_par}) run iteration-batched on plans
      built at prepare time, plain data kept apart from the code that
      runs them: {!Loop_plan} compiles the body into an action table
      whose slice descriptors are fully resolved to frame slots
      ([Sliced] carried tensors become shared buffers written in place
      through one leaf write per recognized rebuild chain,
      bitwise-identical across domain counts), and a body that passes a
      prepare-time check also gets a {!Vector_plan}, which runs each
      statement once across every iteration (Algorithm 2's
      parallelization, executed for real) and which the batched arm runs
      first;
    - a [Sequential] loop whose body compiled to one loop kernel
      ({!Functs_jit.Jit_emit.emit_loop}) runs as one launch,
      single-lane;
    - every loop with such a plan or kernel, and every [Reduction] loop,
      is one site whose arm a rule fixes when the site is made: [native]
      (the loop kernel) when it has one, else [batched] (the vectorised
      plan, or the action table when there is none or it bails, its
      chunks handed to {!Pool.parallel_for}, which fans them out across
      lanes or runs them all on the caller), else [seq] (the sequential
      body: a [Reduction] loop).  Nothing is measured to choose.  The
      site is journaled once as a [Tuner_pin] with detail
      [rule=loop-kernel|vector-plan|chunked-plan|reduction].  A loop
      kernel that fails launch validation is demoted to [seq] for good,
      as a group kernel is demoted to per-node (a [Jit_demote] record, a
      [jit.fallback] trace instant and a [jit.demoted] tick);
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
    domains; the pool alone decides whether a batched loop fans out);
    [loop_grain] is the minimum trip count before a loop runs batched,
    [kernel_grain] the per-chunk element count for intra-kernel splits.
    Every group starts per-node; {!arm} adds native kernels.  Each
    loop site gets its arm by the rule above. *)

val arm : prepared -> Functs_jit.Jit.armed -> int
(** Arm each listed group with its native kernel, which it launches
    from then on, and give each listed loop a site on [native];
    returns how many groups and loops it armed.  Sites already armed,
    demoted, or unknown are left as they are.  Callers serialize it with
    {!run}. *)

type arm = [ `Cjit | `Per_node | `Batched | `Seq | `Native ]
(** A site's arms, named [c-jit], [per_node] (groups) and [batched],
    [seq], [native] (loops) in attribution rows and the journal. *)

type site = [ `Group | `Loop ] * int
(** An attribution row's [(at_kind, at_id)]: [group#N] or [loop#N]. *)

val force : prepared -> site -> arm -> unit
(** Pin [site] to [arm] for good.  Backs [Engine.force].  A loop runs
    [arm] from then on (journaled as a [Tuner_pin] with detail
    [forced]).  [per_node] demotes a group for good (a [Jit_demote]
    record with detail [forced]); [c-jit] on an armed group changes
    nothing.
    @raise Invalid_argument when the site does not exist or lacks the
    arm (a loop has [native] while its kernel is armed, [batched] with a
    batching plan, and [seq] always): [c-jit] on a group with no
    native kernel armed, [native] on a loop without a loop kernel (never
    armed, or demoted), [batched] on a loop without a batching plan, a
    loop arm on a group or a group arm on a loop. *)

val output_shapes : prepared -> Shape_infer.shape option list
(** Statically inferred shapes of the graph's return values (in return
    order), as computed at prepare time.  The serving layer uses these to
    verify that a declared output batch axis really carries the bucket
    extent before gathering per-request results. *)

val check_args :
  Graph.t -> Shape_infer.shape option list -> Value.t list -> (unit, string) result
(** [check_args g expected args] is the accept rule for the arguments of
    graph [g] compiled for the parameter shapes [expected] ([None] for a
    scalar or an unknown shape): the same arity, every argument of its
    parameter's kind (a tensor, an int, a float, a bool or a list), and
    every tensor of its compiled shape.  [Error] names the argument, and the expected and actual kind
    or shape.  {!run} raises on it, and a serving session rejects a
    request with it at submit. *)

val run : prepared -> Value.t list -> Value.t list
(** Execute once.  The storage pool persists across runs; returned tensors
    are never recycled.  Not thread-safe — one run at a time.
    @raise Functs_interp.Eval.Runtime_error like the interpreter, and
    when {!check_args} rejects the arguments. *)

type stats = {
  groups : int;  (** fusion groups in the plan *)
  kernel_runs : int;  (** kernel launches so far; equals [cjit_runs] *)
  pool_fresh : int;
  pool_reused : int;
  donations : int;  (** assigns executed in place *)
  parallel_loops_run : int;  (** batched loop executions *)
  batched_loops : int;  (** loops with an iteration-batching plan *)
  vector_loops : int;
      (** batched loop executions on the vectorised arm, which runs each
          body statement once across every iteration (included in
          [parallel_loops_run]) *)
  cjit_groups : int;
      (** groups currently armed with a native (C) kernel (a demoted
          one no longer counts) *)
  cjit_runs : int;  (** native kernel launches so far *)
  jit_fallbacks : int;
      (** launch-validation failures that demoted a group or loop
          kernel for good *)
  loops_pinned_batched : int;
      (** loops with a batching plan on the [batched] arm (all of them
          unless one was forced to [seq]) *)
  native_loops : int;
      (** sequential loops armed with a loop kernel (a demoted one no
          longer counts) *)
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
      (** the arm a group runs — [c-jit] while armed, else [per_node] —
          or a loop runs — [native]/[batched]/[seq] *)
  at_members : int;  (** member instructions (groups) / body size (loops) *)
  at_ops : string list;
      (** distinct op names, namespace dropped, in order: the members of
          a group ([["matmul"]]) or the body of a loop *)
  at_time_s : float;  (** accumulated launch wall time *)
  at_launches : int;
}

val attribution : prepared -> attribution_row list
(** Per-group / per-loop-site wall-time attribution, hottest first.
    Collected as a side effect of the launch timing every group and
    loop site already does, so it costs nothing beyond normal dispatch;
    only sites that launched at least once appear. *)

val clear_buffers : prepared -> unit
(** Drop the storage pool's parked buffers (compile-cache eviction). *)
