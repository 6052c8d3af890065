(** The fused execution engine: plan → compile → run.

    [prepare] consumes a {e functionalized} graph, computes its fusion
    plan and shapes, builds the slot frames and the buffer-liveness
    table (and, with the JIT, one native kernel per fusion group), and
    returns a reusable executable.  [run] then executes it with
    interpreter semantics but group launches, recycled buffers, in-place
    assign donation and (optionally) horizontally parallelized loops.

    Graphs that still contain mutations degrade gracefully to plain
    per-node execution, so the engine is total over anything {!Eval} runs. *)

open Functs_ir
open Functs_core
open Functs_interp

type t

val prepare :
  ?profile:Compiler_profile.t ->
  ?parallel:bool ->
  ?domains:int ->
  ?loop_grain:int ->
  ?kernel_grain:int ->
  ?cache:bool ->
  ?jit:Functs_jit.Jit.mode ->
  ?jit_dir:string ->
  Graph.t ->
  inputs:Shape_infer.shape option list ->
  t
(** [profile] defaults to {!Compiler_profile.tensorssa}; [parallel]
    (default [true]) batches the loops {!Loop_par} clears and dispatches
    work across the pool, [false] gives the sequential reference engine;
    [domains] defaults to {!default_domains}, the lanes of a process-wide
    {!Pool.shared} pool reused by every engine.  [loop_grain] (default
    {!default_loop_grain}) is the minimum trip count before a loop runs
    batched; [kernel_grain] (default {!default_kernel_grain}) the
    element threshold for intra-kernel chunking.
    [inputs] are shape hints for the graph parameters ([None] for
    scalars), as for {!Shape_infer.infer}.

    The engine never reads the environment: the FUNCTS_* knobs are
    parsed by the serving layer's [Config.of_env] and passed here
    explicitly (sessions, the CLI and the bench all do).

    Results are memoized in a process-wide compile cache keyed by the
    profile, the parallel/domains/grain configuration, the input shape
    signature, and the graph's printed form: a second [prepare] of the
    same program with the same shapes returns the already-lowered engine
    (slot frames, native kernels, buffer pool) without recompiling.
    [cache] defaults to [true]; pass [~cache:false] to bypass for one
    call.  [jit] (default [Off]) arms fused groups with native code via
    {!Functs_jit.Jit}; [jit_dir] (default [""], a temp-dir fallback) is
    the artifact-cache directory.  Both participate in the compile-cache
    key.

    The JIT is tiered.  On an artifact hit (in memory or on disk) the
    groups are armed before [prepare] returns.  On a miss [prepare]
    starts [cc] in the background and returns at once: every group runs
    per-node until a later {!run}, which polls the compile first, finds
    the unit loaded and arms it (a [Jit_arm] journal record): each armed
    group launches its kernel from then on.  Engines of one graph at other
    batch sizes join the same compile.  No run ever waits for [cc]; use
    {!await_jit} where a caller must time an armed engine.  No process-wide setting changes these defaults.
    Capacity is {!set_cache_capacity} (default 32) entries, evicted LRU;
    hit/miss/evict counters are the [engine.cache.*] metrics, read via
    {!Compiler_profile.cache_snapshot}.  The cache is safe to use from
    multiple domains — lookups, cold builds and evictions are
    mutex-serialized. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val default_loop_grain : unit -> int
(** 2. *)

val default_kernel_grain : unit -> int
(** 8192. *)

val input_shapes : Value.t list -> Shape_infer.shape option list
(** Shape hints extracted from concrete argument values. *)

val plan : ?profile:Compiler_profile.t -> Graph.t -> Fusion.plan
(** The fusion plan {!prepare} runs: [profile] (default
    {!Compiler_profile.tensorssa}) with in-loop assigns fenced out of
    every group ([Fusion.plan ~fence_loop_assigns:true]), so they run
    per node and can donate.  Its [Codegen.emit] kernels are the ones
    the JIT compiles. *)

val run : t -> Value.t list -> Value.t list
(** Execute once; the buffer pool persists across calls.  Unlike
    {!Eval.run_tensors}, argument tensors are never written to — they are
    marked foreign to the donation machinery — so callers may reuse them.
    Runs on the same engine are mutex-serialized: a cached engine may be
    shared by several sessions' dispatchers, and the underlying
    scheduler executes one run at a time.
    @raise Eval.Runtime_error as the interpreter does, and when
    {!check_args} rejects the arguments against the [inputs] the engine
    was prepared for. *)

val check_args :
  Graph.t -> Shape_infer.shape option list -> Value.t list -> (unit, string) result
(** {!Scheduler.check_args}: the one accept rule for a compiled graph's
    arguments, which {!run} and a serving session's submit both apply. *)

(** {1 Tiered JIT} *)

val await_jit : t -> unit
(** Block until the engine has no JIT compile pending, arming what it
    compiled.  For tests, benchmarks and the CLI, which time armed
    engines; serving never calls it. *)

val jit_pending : t -> bool
(** A background compile has not armed this engine yet. *)

val armed_at : t -> float option
(** [Unix.gettimeofday] when native groups were last armed on this
    engine; [None] when none ever were. *)

val cancel_jit : t -> unit
(** Kill and reap the engine's pending compile, removing its lockfile
    and build directory ({!Functs_jit.Jit.cancel}).  Other engines
    sharing the compile, and this one if it runs again, start it anew
    at their next run.  Compiles still pending at exit are cancelled by
    an [at_exit] hook. *)

val force : t -> Scheduler.site -> Scheduler.arm -> unit
(** [force t site arm] pins one site — an attribution row's
    [(at_kind, at_id)], [group#N] or [loop#N] — to [arm] for good: a
    loop runs it whatever its rule gave, and a group forced to
    [`Per_node] is demoted (journaled as [forced]).  For tests only:
    no configuration, environment variable or CLI flag reaches it.
    Serialized with {!run}.
    @raise Invalid_argument when the site does not exist or lacks the
    arm ({!Scheduler.force}): e.g. [`Cjit] on a group whose kernel is
    not armed, or [`Batched] on a loop without a batching plan. *)

val stats : t -> Scheduler.stats

val attribution : t -> Scheduler.attribution_row list
(** Per-group / per-loop wall-time attribution of this engine's runs
    (see {!Scheduler.attribution}), hottest first. *)

val graph : t -> Graph.t

val output_shapes : t -> Shape_infer.shape option list
(** Statically inferred shapes of the compiled graph's return values, in
    return order.  A batched serving engine checks these against
    {!Shape_infer.scale_axis} of the batch=1 shapes before trusting a
    workload's declared output axes for scatter/gather. *)

(** {1 Compile cache} *)

val clear_cache : unit -> unit
(** Drop every cached engine (and its parked buffers).  The
    [engine.cache.*] counters are not reset — use
    {!Compiler_profile.reset_compile_cache}. *)

val cache_size : unit -> int
(** Entries currently resident. *)

val set_cache_capacity : int -> unit
(** Resident-entry capacity before LRU eviction (clamped to ≥ 1;
    initially 32).  [Config.apply] pushes [FUNCTS_CACHE_SIZE] through
    this. *)
