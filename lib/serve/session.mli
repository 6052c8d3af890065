(** Session-based concurrent serving of one compiled workload at one
    input signature, with batch-first dispatch.

    A session is the amortization layer the CLI lacks: [create] pays
    lowering + TensorSSA + fusion + kernel compilation {e once} (through
    the engine's shape-keyed compile cache) at the batch and sequence
    length it is given, starts a dispatcher (see {e Where the
    dispatcher runs}), and then serves [submit]ted requests until
    [close].  It serves that one
    signature (argument count, argument kinds and tensor shapes):
    {!submit} rejects a request of any other signature at once, as
    {!Functs_exec.Engine.run} would ({!Functs_exec.Engine.check_args} is
    the one rule).  Serving another shape means creating a session at
    that shape.  With the JIT on and its artifacts not yet on disk,
    [create] does not wait for [cc]: the engines serve node by node
    while the compile runs in the background, and arm their native
    kernels at the first run after it finishes (see
    {!Functs_exec.Engine.prepare}).  The LazyTensor lesson: the win of an eager-plus-compiler
    system lives or dies on reusing compilation across calls — a warm
    session never recompiles: its dispatcher serves every request from
    the engines [create] compiled, without probing the compile cache, so
    not even [Engine.clear_cache] or an LRU eviction puts a rebuild on
    the request path (the [engine.cache.*] counters prove it).

    {2 Batched dispatch}

    For workloads that declare {!Workload.batching} (their program at
    batch [n] is [n] independent copies of the batch-1 program), [create]
    compiles one engine {e per configured bucket size}
    ([config.batch_buckets], default [1;4;16]): the workload's program is
    re-instantiated at [bucket × native batch] and lowered through the
    same shape-keyed compile cache.  The dispatcher then
    decomposes the requests it pops greedily into the largest buckets
    that fit, {e scatters} the per-request tensors into
    one batch-major buffer per declared input axis
    ({!Tensor.concat_axis_into} — one blit per prefix block), runs the
    bucket engine {e once}, and {e gathers} each request's outputs as
    {!Tensor.narrow} views of the batched outputs.  The scatter buffers
    belong to the dispatcher shard and are reused by the bucket's next
    run, unless an output shares storage with one (a program returning
    its batched input): that buffer is dropped, so a reply never sees a
    later batch.  A reply keeps its whole batch output alive.
    Requests only share a bucket when their shared ([None]-axis)
    arguments are physically identical, so weights are never mixed
    between callers.  Deadlines are re-checked as each bucket forms:
    a member expiring mid-dispatch is degraded per policy, and the
    remainder re-buckets (partial final buckets are normal).

    {2 Where the dispatcher runs}

    Shard 0's dispatcher is a systhread of the creating domain when one
    core is usable ([Domain.recommended_domain_count () = 1], which
    reads the CPU affinity) and that domain is the main one; otherwise
    it is a domain of its own.  A second domain pays for every major GC
    cycle with a stop-the-world handshake that waits for each other
    domain, and with one core the caller's domain, blocked in {!await},
    answers only after the spinning dispatcher's timeslice ends: pinned
    to one CPU, yolact's exec p99 read 5.0–5.5 ms with a dispatcher
    domain and 0.56–0.62 ms with the thread.  With more cores the domain runs beside
    the caller and serves faster.  A session made on a spawned domain
    keeps a domain dispatcher, since a thread would keep that domain
    from finishing.  The choice is journaled at site
    [serve.dispatcher] (arm [thread] or [domain], detail
    [cores=<n>]).  Caveat: on one core, a main domain that computes
    instead of awaiting lets the dispatcher thread run only at the
    systhread tick (every 50 ms).

    {2 Sharding}

    Each dispatcher shard serves the session's requests from its own
    bucket-size → engine table.  Shard 0's table holds the engines
    [create] compiled.  When the queue holds more than two
    full dispatch rounds and [config.shards] allows, the session spawns
    additional dispatcher domains (always domains: they exist to use
    more cores), each filling its table lazily with
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
    - each dispatcher shard pops up to
      [max config.max_batch (largest bucket)] queued requests at a time;
    - the engine itself may parallelize each run across the shared
      domain pool exactly as in direct [Engine.run] use.

    Degradation ([config.policy]): a request whose deadline expired
    before dispatch, or whose engine run raised, either falls back to
    the reference interpreter ([`Interp_fallback] — slower, always
    eager-correct) or is shed with a structured error ([`Shed]).

    Observability: per-session {!stats} plus the process-wide
    [serve.*] metrics — submitted / completed / shed / overloaded /
    deadline_expired / cancelled / interp_fallbacks counters, the
    [serve.batch_size] histogram (requests per engine run), per
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
    (site [serve.shards]), the dispatcher's placement (site
    [serve.dispatcher]) — all replayable via [functs why]. *)

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
    workload's own), compile an engine for its native input shapes {e
    and for every configured batch bucket} (when the workload declares
    {!Workload.batching}), and start the dispatcher with those engines.
    The workload's inputs are drawn once, for the base request; a
    bucket's input shapes are the base shapes scaled by the bucket size
    along the declared input axes, the shapes the dispatcher's scatter
    hands it.  Create runs no engine: every arm is fixed when its
    engine is prepared, so there is nothing to warm.  Bucket variants
    that fail to compile, or whose inferred output shapes do not scale by
    the bucket factor along the declared axes, are dropped (falling back
    as far as bucket-1-only serving).  [profile] defaults to
    {!Compiler_profile.tensorssa}; every variant is lowered through
    {!Functs_core.Passes.for_profile}, so a baseline profile serves its
    imperative graph.  Frontend and compiler failures come
    back as [Error.Lowering_error] / [Error.Engine_failure] — nothing
    raises. *)

val submit : t -> input -> (ticket, Error.t) result
(** Enqueue one request.  Returns [Error Session_closed] after {!close}
    was initiated, whatever the request; otherwise [Error (Runtime_error
    msg)] when its argument count, an argument's kind or
    a tensor shape differs from the signature the session compiled ([msg]
    names the argument, the compiled and the submitted kind or shape;
    nothing is queued, compiled or counted), and [Error Overloaded] when
    the queue is at capacity. *)

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
    can return [Error Overloaded], and rejects another signature as
    {!submit} does). *)

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
  batches : int;  (** dispatcher dequeues *)
  batched_runs : int;  (** engine runs that carried > 1 request *)
  bucket_runs : (int * int) list;
      (** occupancy → runs at that occupancy, e.g. [[(16, 12); (4, 3)]];
          a session without batch buckets serves each dispatch one by
          one and counts it at its number of requests *)
  shards : int;  (** dispatchers running (≥ 1) *)
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
