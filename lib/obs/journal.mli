(** Decision journal: a ring buffer of the runtime's performance-affecting
    decisions, so "why is this workload slow/fast?" has an inspectable
    answer after the fact ([functs why]).

    Producers are the scheduler's auto-tuner (sample results, pins,
    flips, pin expiries), the JIT (per-group demotion with the failure
    reason, and the arming of an engine by a background compile), the engine and JIT artifact caches
    (evictions), and the serve layer (deadline degradations).  Decisions
    are rare events, so records take a mutex; the {e disabled} record is
    one [bool ref] read with no allocation, and call sites guard
    detail-string construction on {!enabled}.

    On by default (budgeted in [bench/obs_overhead.ml]; the always-on
    cost is gated ≤ 2% in check.sh).  [FUNCTS_JOURNAL=0] /
    [FUNCTS_JOURNAL_BUF] are parsed by the serving layer's
    [Config.of_env], which calls {!disable} / {!set_capacity}. *)

type kind =
  | Tuner_sample  (** one arm's min-of-N sample completed *)
  | Tuner_pin  (** a group/loop pinned its winning arm *)
  | Tuner_flip  (** a re-pin chose a different arm than the incumbent *)
  | Tuner_expire  (** a pin expired; back to sampling *)
  | Jit_demote  (** a group fell back off its native kernel *)
  | Jit_arm
      (** a background compile finished and armed an engine's groups;
          the detail holds the unit's digest prefix and the engine's
          wait in ms (also the value) *)
  | Cache_evict  (** compile-cache or JIT artifact-cache eviction *)
  | Deadline_degrade  (** a serve request missed its deadline *)

val kind_name : kind -> string

type entry = {
  j_ts : float;  (** microseconds since the journal epoch *)
  j_kind : kind;
  j_site : string;  (** e.g. ["scheduler.group"], ["serve"] *)
  j_id : int;  (** group/loop/ticket id; -1 when not applicable *)
  j_arm : string;  (** arm or mode name, e.g. ["c-jit"], ["per_node"] *)
  j_detail : string;
  j_value : float;  (** sample time, eviction count… 0 if unused *)
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val record :
  ?id:int -> ?arm:string -> ?detail:string -> ?value:float -> kind -> string -> unit
(** [record kind site] appends an entry (no-op when disabled). *)

val entries : unit -> entry list
(** Buffered entries, oldest first (at most {!capacity}). *)

val recorded : unit -> int
(** Entries recorded since the last {!clear} (including overwritten). *)

val dropped : unit -> int
(** Entries lost to ring wrap-around since the last {!clear}. *)

val capacity : unit -> int
(** Ring size (default 4096; configured via {!set_capacity}). *)

val set_capacity : int -> unit
(** Resize the ring (clamped to ≥ 16).  Clears buffered entries. *)

val clear : unit -> unit

val entry_to_text : entry -> string
val to_text : unit -> string
