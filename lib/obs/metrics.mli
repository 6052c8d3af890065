(** Process-wide metrics registry: named counters, gauges and histograms
    with one [snapshot] and a text / JSON dump.

    Instruments are created (or fetched — creation is idempotent per
    name) once at module-init time and then updated with no lookup and
    no lock.  Counters are atomic (an [incr] is one fetch-and-add), so
    no domain loses another's increments; gauges and histograms are
    plain stores, not synchronized across domains — every current
    producer updates them from the dispatching domain.

    Histograms are HDR-style log-bucketed: every power-of-two octave of
    the sample range is split into 16 linear sub-buckets, so each bucket
    has 6.25% relative width and {!percentile} answers are within one
    bucket of the exact sorted-sample quantile.  [observe] stays a
    store-only op (compute index from mantissa/exponent, bump one array
    cell) — no allocation, no lock.

    Naming convention: dot-separated [layer.thing], e.g.
    [engine.cache.hits], [pool.dispatches], [exec.kernel_runs].

    The registry never reads the environment: the [FUNCTS_METRICS]
    exit-dump knob is parsed and validated by the serving layer's
    [Config.of_env], which registers the [at_exit] dump itself using
    {!snapshot} / {!to_text} / {!to_json}. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get or create the counter named [name]. *)

val incr : ?by:int -> counter -> unit
val value : counter -> int
val reset_counter : counter -> unit

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : string -> histogram

val observe : histogram -> float -> unit
(** Record one sample: count/sum/min/max and the sample's log bucket. *)

(** {1 Snapshots} *)

type hstat = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (int * int) list;
      (** Sparse [(bucket_index, count)] pairs, ascending by index.
          Indices are internal to this module — only meaningful to
          {!percentile}, {!merge} and {!diff}. *)
}
(** [h_min]/[h_max] are 0 when [h_count = 0]. *)

val hstat_zero : hstat

val percentile : hstat -> float -> float
(** [percentile h p] for [p] in [0..1]: the nearest-rank quantile read
    from the log buckets, clamped to [[h_min, h_max]].  Within one
    bucket (6.25% relative) of the exact sorted-sample value.  Returns
    0 on an empty hstat. *)

val mean : hstat -> float

val merge : hstat -> hstat -> hstat
(** Combine two hstats (e.g. the same histogram from two processes):
    counts and bucket cells add, min/max widen. *)

val diff : before:hstat -> after:hstat -> hstat
(** Window between two snapshots of the {e same} histogram, [before]
    taken first: per-bucket count deltas.  The window's exact min/max
    are not recoverable from cumulative state; they are re-derived from
    the surviving buckets' bounds (within one bucket of the truth). *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hstat) list;
}
(** Each list is sorted by name, so snapshots compare structurally. *)

val snapshot : unit -> snapshot

val hstat_of : snapshot -> string -> hstat option
(** Look up one histogram by name. *)

val reset : unit -> unit
(** Zero every registered instrument (names stay registered). *)

val to_text : snapshot -> string
(** Line-oriented dump: [name value] per instrument, histograms as
    [name count=… sum=… min=… max=… p50=… p90=… p99=…]. *)

val to_json : snapshot -> string

val of_json : string -> snapshot
(** Inverse of {!to_json}.  Accepts pre-bucket dumps (missing
    ["buckets"] member → empty bucket list).
    @raise Failure on malformed input. *)
