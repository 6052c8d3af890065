(** Session-based concurrent serving of one compiled workload, with
    batch-first dispatch.

    A session is the amortization layer the CLI lacks: [create] pays
    lowering + TensorSSA + fusion + kernel compilation {e once} (through
    the engine's shape-keyed compile cache), spawns a dedicated
    dispatcher domain, and then serves [submit]ted requests until
    [close].  With the JIT on and its artifacts not yet on disk,
    [create] does not wait for [cc]: the engines serve node by node
    while the compile runs in the background, and arm their native
    kernels at the first run after it finishes (see
    {!Functs_exec.Engine.prepare}).  The LazyTensor lesson: the win of an eager-plus-compiler
    system lives or dies on reusing compilation across calls — a warm
    session never recompiles: its dispatcher serves native-shape
    requests from the engines [create] compiled, without probing the
    compile cache, so not even [Engine.clear_cache] or an LRU eviction
    puts a rebuild on the request path (the [engine.cache.*] counters
    prove it).

    {2 Batched dispatch}

    For workloads that declare {!Workload.batching} (their program at
    batch [n] is [n] independent copies of the batch-1 program), [create]
    compiles one engine {e per configured bucket size}
    ([config.batch_buckets], default [1;4;16]): the workload's program is
    re-instantiated at [bucket × native batch], lowered, and warmed
    through the same shape-keyed compile cache.  The dispatcher then
    decomposes each run of same-shape requests greedily into the
    largest buckets that fit, {e scatters} the per-request tensors into
    one batch-major buffer per declared input axis ({!Tensor.concat_axis}
    — one blit per prefix block), runs the bucket engine {e once}, and
    {e gathers} per-request outputs back with {!Tensor.split_axis}.
    Requests only share a bucket when their shared ([None]-axis)
    arguments are physically identical, so weights are never mixed
    between callers.  Deadlines are re-checked as each bucket forms:
    a member expiring mid-dispatch is degraded per policy, and the
    remainder re-buckets (partial final buckets are normal).

    {2 Sharding}

    Each dispatcher shard serves native-shape requests from its own
    bucket-size → engine table.  Shard 0's table holds the engines
    [create] compiled and warmed; only ad-hoc shapes probe the
    process-wide compile cache.  When the queue holds more than two
    full dispatch rounds and [config.shards] allows, the session spawns
    additional dispatcher domains, each filling its table lazily with
    {e private, uncached} engines ([Engine.prepare ~cache:false]) —
    sharing one engine would only serialize on its run mutex, and
    private builds leave the compile-cache hit/miss counters untouched,
    so the warm-miss-0 invariant stays meaningful.  Scale-out decisions
    are journaled at site [serve.shards].

    Concurrency model:

    - any number of producer domains may [submit] / [await] concurrently;
    - [submit] is non-blocking backpressure: when the bounded queue
      (capacity [config.queue_capacity]) is full it returns
      [Error Error.Overloaded] immediately — callers decide whether to
      retry, degrade or propagate;
    - each dispatcher shard drains the queue in same-shape runs (the
      head request plus queued requests with the same input-shape
      signature, up to [max config.max_batch (largest bucket)]);
    - the engine itself may parallelize each run across the shared
      domain pool exactly as in direct [Engine.run] use.

    Degradation ([config.policy]): a request whose deadline expired
    before dispatch, or whose engine run raised, either falls back to
    the reference interpreter ([`Interp_fallback] — slower, always
    eager-correct) or is shed with a structured error ([`Shed]).

    Observability: per-session {!stats} plus the process-wide
    [serve.*] metrics — submitted / completed / shed / overloaded /
    deadline_expired / cancelled / interp_fallbacks counters, the
    [serve.batch_size] and [serve.bucket_occupancy] histograms, per
    bucket-size run counters ([serve.bucket.b1], [serve.bucket.b4], …),
    the per-stage latency histograms
    [serve.latency.{queue_wait,batch,exec,total}_us] (observed from each
    ticket's lifecycle stamps at completion), and the
    [serve.queue_depth] / [serve.queue_depth_peak] gauges.  Tracing:
    [serve.submit] / [serve.batch] / [serve.bucket_run] spans, with a
    [serve.req] flow arrow (keyed by ticket id) linking each producer's
    submit span to the dispatcher batch span that served it.  Decision
    journal: deadline degradations (site [serve]), bucket-chooser pins
    and flips (site [serve.bucket]), shard scale-outs
    (site [serve.shards]) — all replayable via [functs why]. *)

open Functs_interp
open Functs_core
open Functs_workloads

type t

type input
(** One request: argument values plus an optional deadline.  Build with
    {!input}; reusable across submits (argument tensors are never
    written by the engine path). *)

type ticket
(** One accepted request.  Redeem with {!await} or {!poll}; abort with
    {!cancel}.  All three are ticket-only operations — no session handle
    needed, so a ticket can cross module boundaries on its own. *)

val input : ?deadline_us:float -> Value.t list -> input
(** [deadline_us] is relative to the eventual {!submit}; a request still
    queued when it expires is handled per [config.policy]. *)

val create :
  ?config:Config.t ->
  ?profile:Compiler_profile.t ->
  ?batch:int ->
  ?seq:int ->
  Workload.t ->
  (t, Error.t) result
(** Lower and compile [workload] at the given scale (defaults to the
    workload's own), compile and warm an engine for its native input
    shapes {e and for every configured batch bucket} (when the workload
    declares {!Workload.batching}), and start the dispatcher with those
    engines.  Bucket variants
    that fail to compile, or whose inferred output shapes do not scale by
    the bucket factor along the declared axes, are dropped (falling back
    as far as bucket-1-only serving).  [profile] defaults to
    {!Compiler_profile.tensorssa}; every variant is lowered through
    {!Functs_core.Passes.for_profile}, so a baseline profile serves its
    imperative graph.  Frontend and compiler failures come
    back as [Error.Lowering_error] / [Error.Engine_failure] — nothing
    raises. *)

val submit : t -> input -> (ticket, Error.t) result
(** Enqueue one request.  Returns [Error Overloaded] when the queue is at
    capacity and [Error Session_closed] after {!close} was initiated. *)

val await : ticket -> (Value.t list, Error.t) result
(** Block until the request completes.  [Ok outputs] carries exactly the
    interpreter-semantics outputs for the submitted inputs — batched
    dispatch is bitwise-transparent per request.  Idempotent: awaiting
    again returns the same outcome. *)

val poll : ticket -> (Value.t list, Error.t) result option
(** Non-blocking probe: [None] while in flight, [Some outcome] once
    completed (the same outcome {!await} returns). *)

val cancel : ticket -> bool
(** Try to abort: [true] when the request had not started executing —
    {!await} then returns [Error Cancelled] and the dispatcher skips it.
    [false] when the outcome was already decided (completed, degraded, or
    racing past the point of no return); the existing outcome stands. *)

val run : t -> ?deadline_us:float -> Value.t list -> (Value.t list, Error.t) result
(** [submit] + [await] in one call (still goes through the queue, so it
    can return [Error Overloaded]). *)

val ticket_id : ticket -> int
(** Process-unique request id; keys the [serve.req] trace flow arrow. *)

val ticket_stages : ticket -> (string * float) list
(** The completed request's per-stage breakdown in microseconds
    ([queue_wait] / [batch] / [exec] / [total]); stages the request
    never reached (e.g. [exec] for an expired request) are absent.
    Meaningful only after {!await} returned. *)

val bucket_sizes : t -> int list
(** The bucket sizes this session actually compiled, ascending (always
    includes 1).  [[1]] when the workload does not batch. *)

val pause : t -> unit
(** Hold the dispatcher: queued requests stay queued (submits still
    land / overflow), until {!resume} or {!close}.  For drain control
    and deterministic backpressure tests. *)

val resume : t -> unit

val close : t -> unit
(** Stop accepting submits, let every dispatcher shard drain the queued
    requests, then join them all, and cancel the JIT compiles the
    session's engines still wait for ({!Functs_exec.Engine.cancel_jit}:
    the compiler is killed and reaped, its lockfile and build directory
    removed).  Idempotent; safe from any domain. *)

val await_jit : t -> float option
(** Block until none of the session's engines has a JIT compile
    pending; returns when the last of them armed native groups
    ([Unix.gettimeofday]), or [None] when none ever did.  For tests,
    benchmarks and the CLI: serving never waits for [cc]. *)

type stats = {
  submitted : int;
  completed : int;  (** responses delivered, including fallbacks *)
  shed : int;  (** requests dropped by the [`Shed] policy *)
  interp_fallbacks : int;  (** requests served by the interpreter *)
  overloaded : int;  (** submits refused by the full queue *)
  deadline_expired : int;  (** requests whose deadline passed in queue *)
  cancelled : int;  (** tickets cancelled before execution *)
  batches : int;  (** dispatcher same-shape dequeues *)
  batched_runs : int;  (** engine runs that carried > 1 request *)
  bucket_runs : (int * int) list;
      (** occupancy → runs at that occupancy, e.g. [[(16, 12); (4, 3)]];
          ad-hoc-shape runs count at their group size *)
  shards : int;  (** dispatcher domains running (≥ 1) *)
  max_queue_depth : int;
}

val stats : t -> stats
(** Every submitted ticket ends in exactly one of [completed] (possibly
    with an error outcome) or [cancelled]. *)

val attribution : t -> Functs_exec.Scheduler.attribution_row list
(** Per-group / per-loop wall-time attribution of the engine that served
    most recently (hottest first; empty before any engine acquisition).
    Backs [functs profile]. *)

val engine_stats : t -> Functs_exec.Scheduler.stats option
(** Scheduler stats of the most recently acquired engine. *)
