(** Persistent pool of OCaml [Domain]s for the execution engine, running
    one job at a time.

    [Domain.spawn] costs tens of microseconds per domain — paying it on
    every parallel-loop dispatch swamps the work for all but the largest
    loops.  A pool spawns its worker domains once and parks them on a
    condition variable.  A dispatch publishes one job: the range cut into
    cache-sized tasks, and a single shared counter.  The dispatcher and
    every woken worker claim task indices from that counter with
    [Atomic.fetch_and_add] until none are left, so a lane that finishes
    early simply claims the next task and skewed iteration costs
    rebalance instead of leaving lanes idle behind a static
    one-chunk-per-lane split.

    Task granularity is cache-aware: with a [bytes_per_iter] hint, each
    task covers roughly {!chunk_bytes} of memory traffic (probed once
    from cpu0's L2 in sysfs, overridable via {!set_chunk_bytes} —
    [Config.of_env] wires [FUNCTS_CHUNK_BYTES] to it), floored by the
    caller's [grain] and capped so every lane still sees several tasks
    to claim.

    Invariants:

    - {!parallel_for} always executes the whole range, parallel or not,
      and partitions are disjoint — callers relying on disjoint writes
      for determinism get bitwise-identical results either way;
    - completion never depends on the workers: the dispatcher claims
      tasks like any lane and blocks only once every task is claimed and
      some still run on a worker, so dispatch cannot deadlock even with
      zero workers awake;
    - one job at a time: a [parallel_for] issued while the pool is
      running a job — from inside a task body, or from another domain
      dispatching concurrently — runs its whole range sequentially on
      its caller (counted in {!fallback_nested});
    - an exception in any task is captured, every other task still
      completes (workers are never left wedged), and the first exception
      re-raises on the dispatcher after the join. *)

type t

val create : lanes:int -> t
(** A pool with [lanes] execution lanes: the caller plus [lanes - 1]
    freshly spawned worker domains ([lanes <= 1] spawns nothing).  If the
    runtime's domain limit is hit mid-spawn the pool degrades to however
    many workers could be spawned. *)

val shared : lanes:int -> t
(** The process-wide shared pool with [lanes] lanes, created on first
    request and reused by every engine asking for the same width — OCaml
    caps live domains (~128), so per-engine pools must share.  Shared
    pools are shut down by an [at_exit] hook, never by callers. *)

val lanes : t -> int
(** Total lanes including the caller (after any degraded spawn). *)

val parallel_for :
  ?bytes_per_iter:int -> t -> grain:int -> n:int -> (int -> int -> unit) -> bool
(** [parallel_for t ~grain ~n body] covers [\[0, n)] with disjoint
    [body lo hi] tasks.  [bytes_per_iter] (approximate memory traffic of
    one iteration, 0 = unknown) drives the cache-aware task size; [grain]
    is a hard floor on iterations per task.  The range is dispatched as
    a job only when at least two tasks exist, the pool is live with two
    or more lanes, and no other job is running; otherwise the whole range
    runs as [body 0 n] on the caller.  Empty tasks are never created.
    Returns [true] iff the range was split into tasks.
    @raise exn the first exception raised by any task, after all tasks
    have finished. *)

val shutdown : t -> unit
(** Stop and join every worker domain.  Idempotent; after shutdown the
    pool still works, but {!parallel_for} always runs sequentially. *)

val set_chunk_bytes : int -> unit
(** Override the process-wide per-task cache budget in bytes ([0]
    restores the probed default).  Called by [Config.apply] with the
    validated [FUNCTS_CHUNK_BYTES] value. *)

val chunk_bytes : unit -> int
(** The effective per-task cache budget: the {!set_chunk_bytes} override
    when set, else half of cpu0's L2 size probed from sysfs (falling
    back to a quarter of L3, then 256 KiB). *)

val dispatches : t -> int
(** Dispatches that split the range into tasks. *)

val seq_fallbacks : t -> int
(** [parallel_for] calls that ran sequentially (below grain, issued
    while a job was running, single lane, or after shutdown).  Always
    equals [fallback_grain + fallback_nested + fallback_disabled]. *)

val fallback_grain : t -> int
(** Sequential because fewer than two tasks existed. *)

val fallback_nested : t -> int
(** Sequential because the pool was already running a job: the caller
    was inside a task body, or another domain was dispatching
    concurrently. *)

val fallback_disabled : t -> int
(** Sequential because the pool has a single lane or was shut down. *)

val worker_tasks : t -> int
(** Tasks executed by a worker domain. *)

val caller_tasks : t -> int
(** Tasks executed by their own dispatcher.  Every dispatch adds its task
    count to [worker_tasks + caller_tasks]. *)
