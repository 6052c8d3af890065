(** Typed configuration for the whole stack — engine, pool sizing,
    compile cache, observability and the serving layer — replacing the
    ad-hoc [FUNCTS_*] reads that used to be scattered across [Engine],
    [Tracer] and [Metrics].

    The environment is now {e one overlay}: {!of_env} starts from a base
    config (default {!default}), applies every recognized [FUNCTS_*]
    variable with validation, and returns [Error (Invalid_config …)] on
    the first malformed value instead of silently falling back.  No other
    module in the tree reads [FUNCTS_*] (enforced by a grep gate in
    [scripts/check.sh]).

    A config does nothing until used: pass it to [Session.create] /
    [Functs.compile] for per-session knobs, and call {!apply} once at
    startup to push the process-wide pieces (compile-cache capacity,
    tracer ring size, trace/metrics exit sinks) into the layers that own
    them. *)

type trace_sink =
  | Trace_off
  | Trace_on  (** enable the tracer, no exit dump *)
  | Trace_file of string
      (** enable and write Chrome-trace JSON there at exit *)

type metrics_sink =
  | Metrics_off
  | Metrics_stderr  (** text snapshot to stderr at exit *)
  | Metrics_file of string
      (** snapshot at exit: JSON when the path ends in [.json], text
          otherwise *)

type policy = [ `Interp_fallback | `Shed ]
(** What a session does with a request whose deadline expired before
    dispatch, or whose engine run failed: [`Interp_fallback] serves it
    through the reference interpreter (slower, always correct);
    [`Shed] drops it with [Error.Deadline_exceeded] /
    [Error.Engine_failure]. *)

type t = {
  domains : int;  (** worker lanes in the shared domain pool (≥ 1) *)
  loop_grain : int;  (** min trip count before a loop runs batched *)
  kernel_grain : int;  (** elements per intra-kernel chunk *)
  chunk_bytes : int;
      (** per-task cache budget for the pool's cost-model chunking;
          [0] (the default) probes cpu0's L2 size from sysfs *)
  cache : bool;  (** compile cache on/off *)
  cache_size : int;  (** resident compile-cache entries (LRU) *)
  jit : Functs_jit.Jit.mode;
      (** native JIT backend: off / auto *)
  jit_dir : string;
      (** on-disk JIT artifact cache; [""] = engine temp-dir fallback *)
  jit_cc : string;
      (** JIT C compiler command ([FUNCTS_JIT_CC]); [""] keeps the
          default ([cc]) *)
  trace : trace_sink;
  trace_buf : int;  (** span-tracer ring capacity (≥ 16) *)
  metrics : metrics_sink;
  queue_capacity : int;  (** session submit-queue bound (≥ 1) *)
  max_batch : int;  (** max requests per dispatch (≥ 1) *)
  batch_buckets : int list;
      (** batched-compile bucket sizes, strictly ascending and starting
          at 1 (e.g. [[1; 4; 16]]); a session compiles one engine per
          bucket for batchable workloads and decomposes each dispatch
          greedily into the largest buckets that fit *)
  shards : int;
      (** max dispatchers per session (≥ 1).  Shard 0 is a thread of the
          creating domain when one core is usable (a second domain
          would stall on every major GC's stop-the-world handshake),
          else a domain; extra shards are always domains and spin up
          when queue depth grows past the hot-session threshold *)
  policy : policy;
  journal : bool;  (** decision journal (on by default — records are rare) *)
  journal_buf : int;  (** journal ring capacity (≥ 16) *)
}

val default : t
(** [domains], [loop_grain] and [kernel_grain] from the engine's
    defaults ({!Functs_exec.Engine.default_domains} and its siblings),
    cache on with 32 entries, JIT off with an empty artifact dir,
    tracing and metrics off with a 65536-event ring,
    [queue_capacity = 256], [max_batch = 8],
    [batch_buckets = [1; 4; 16]], [shards = 1],
    [policy = `Interp_fallback], journal on with a 4096-entry ring. *)

val of_env :
  ?base:t -> ?getenv:(string -> string option) -> unit -> (t, Error.t) result
(** [base] (default {!default}) overlaid with the recognized
    environment variables:

    - [FUNCTS_DOMAINS], [FUNCTS_GRAIN], [FUNCTS_KERNEL_GRAIN],
      [FUNCTS_CACHE_SIZE], [FUNCTS_QUEUE], [FUNCTS_MAX_BATCH],
      [FUNCTS_SHARDS] — positive integers ([FUNCTS_TRACE_BUF] and
      [FUNCTS_JOURNAL_BUF] additionally ≥ 16);
    - [FUNCTS_BATCH_BUCKETS] — comma-separated bucket sizes, strictly
      ascending, first element 1 (e.g. [1,4,16]);
    - [FUNCTS_JOURNAL] — decision-journal on/off (default on);
    - [FUNCTS_CHUNK_BYTES] — per-task cache budget in bytes for the
      parallel runtime's chunk cost model; [0] (default) probes the
      machine's L2 size from sysfs;
    - [FUNCTS_CACHE] — [on]/[off]/[1]/[0]/[true]/[false]/[yes]/[no];
    - [FUNCTS_TRACE] — [off] forms, [on]/[1]/[true], or an output path;
    - [FUNCTS_METRICS] — [off] forms, [stderr]/[on]/[1], or a path;
    - [FUNCTS_POLICY] — [interp]/[interp_fallback] or [shed];
    - [FUNCTS_JIT] — [off] (default), or [auto] (arm native C kernels,
      falling back per group to per-node execution on any failure; [on]
      is an alias);
    - [FUNCTS_JIT_DIR] — JIT artifact-cache directory.  When unset the
      directory follows cache conventions: [$XDG_CACHE_HOME/functs/jit],
      else [$HOME/.cache/functs/jit], else a temp-dir fallback.

    Malformed values are {e rejected} with
    [Error (Invalid_config {key; value; reason})] — never a silent
    fallback.  An unset or empty variable leaves the base value (empty
    means "unset" because [Unix.putenv] cannot remove a variable).
    [getenv] (default [Sys.getenv_opt]) exists for tests. *)

val apply : t -> unit
(** Push the process-wide settings where they live: compile-cache
    capacity ([Engine.set_cache_capacity]), the JIT C compiler override
    ([Jit.set_c_compiler], when set), the pool's per-task cache budget
    ([Pool.set_chunk_bytes]), tracer ring capacity, tracer enablement,
    journal ring capacity and enablement, and the trace / metrics exit
    dumps.  The per-engine settings ([cache], [jit], [jit_dir],
    [domains], the grains) are not process-wide: callers pass them to
    [Engine.prepare] ([Session.create] does so from its config).
    Idempotent per process — the exit hooks are registered once and
    follow the most recently applied config. *)

val to_string : t -> string
(** One-per-line [key = value] rendering (for [functs config]). *)
