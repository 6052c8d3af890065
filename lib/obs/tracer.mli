(** Span tracer: ring-buffered begin/end events with Chrome-trace export.

    [span "fusion.plan" (fun () -> …)] records a begin event, runs the
    thunk, and records the matching end event even when the thunk raises,
    so nesting is always balanced.  Events carry a monotonic-ish
    timestamp (microseconds since the tracer epoch), the emitting
    thread's id, and optional string attributes; they land in a
    fixed-capacity ring buffer, so a long run keeps the most recent
    window instead of growing without bound.

    {b Disabled is the default and costs (almost) nothing}: every
    entry point first reads one [bool ref] — a disabled [span name f]
    is [f ()] with no allocation, no lock, no clock read.  Hot call
    sites that must compute attributes guard on {!enabled} themselves
    or use {!span_args}, whose attribute thunk is only forced when
    tracing.

    Enabling: {!enable} (the CLI's [--trace FILE] does this).  The
    tracer itself never reads the environment — the [FUNCTS_TRACE] /
    [FUNCTS_TRACE_BUF] knobs are parsed and validated by the serving
    layer's [Config.of_env], which calls {!enable} / {!set_capacity}
    explicitly and registers the exit dump.

    The export ({!to_chrome}/{!write_chrome}) is Chrome trace-event
    JSON: load it in Perfetto ({:https://ui.perfetto.dev}) or
    [chrome://tracing].  Ring writes are mutex-protected — worker
    domains and the threads of one domain may emit concurrently — and
    events record [Thread.id] of their thread (unique across the
    process) as the trace [tid], so each thread, and so each domain,
    has its own track in the viewer. *)

type phase = Begin | End | Instant | Flow_start | Flow_finish

type event = {
  ev_name : string;
  ev_phase : phase;
  ev_ts : float;  (** microseconds since the tracer epoch *)
  ev_tid : int;  (** emitting thread's [Thread.id] *)
  ev_id : int;  (** flow-pairing id; 0 for non-flow events *)
  ev_args : (string * string) list;
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk between a begin/end event pair.  The end event is
    emitted even when the thunk raises (the exception propagates). *)

val span_args : string -> args:(unit -> (string * string) list) -> (unit -> 'a) -> 'a
(** Like {!span}, with attributes attached to the begin event.  The
    [args] thunk is forced only when tracing is enabled. *)

val instant : ?args:(string * string) list -> string -> unit
(** A point event (Chrome phase [i]) — kernel launches, cache hits… *)

val flow_start : ?args:(string * string) list -> string -> id:int -> unit
(** Flow-arrow tail (Chrome phase [s]).  Emit inside the duration span
    where work is handed off (e.g. a producer's submit); Perfetto draws
    an arrow to the matching {!flow_finish} with the same [name]/[id],
    linking spans across threads and domains. *)

val flow_finish : ?args:(string * string) list -> string -> id:int -> unit
(** Flow-arrow head (Chrome phase [f], [bp:"e"] so it binds to the
    enclosing span where the work resumed — e.g. the dispatcher's
    batch-run span). *)

val depth : unit -> int
(** Current span-nesting depth of the calling thread (0 outside any
    span).  Balanced across exceptions; exposed for tests. *)

(** {1 Inspection & export} *)

val events : unit -> event list
(** Buffered events, oldest first (at most {!capacity}). *)

val emitted : unit -> int
(** Events emitted since the last {!clear} (including overwritten). *)

val dropped : unit -> int
(** Events overwritten by ring wrap-around since the last {!clear}. *)

val capacity : unit -> int
(** Ring size (default 65536; configured via {!set_capacity}).  The ring
    itself is allocated when tracing first starts. *)

val set_capacity : int -> unit
(** Resize the ring (clamped to ≥ 16).  Clears buffered events; while
    tracing is off it also frees the ring until the next {!enable}. *)

val clear : unit -> unit
(** Drop buffered events and reset {!emitted}/{!dropped}. *)

val to_chrome : unit -> string
(** The buffered events as Chrome trace-event JSON. *)

val write_chrome : string -> unit
(** [write_chrome path] writes {!to_chrome} to [path]. *)
