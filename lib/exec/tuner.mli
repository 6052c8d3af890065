(** Expiring-pin, min-of-N auto-tuner over a fixed list of arms — the
    decision procedure behind the scheduler's per-loop arms
    ([native] or [batched], and [seq]).  Groups are not tuned.

    - {b Sampling} is interleaved: the next launch runs the first arm in
      list order with the fewest samples still under three.
    - Each arm keeps the {b minimum} of its samples; once every live arm
      has three of them the fastest is {b pinned}, ties going
      to the earlier arm.
    - Pins {b expire} after a launch budget that starts at 16 and
      doubles on every re-pin up to 4096; on expiry the incumbent is
      seeded with the best launch of its pin window, so only the
      challengers re-sample.
    - A {b frozen} tuner ({!freeze}) keeps its pin forever.
    - Arms can be {b dropped} ({!drop}): a loop kernel that fails
      launch validation leaves [seq] alone.

    Every decision is journaled under the tuner's scope
    ([Tuner_sample], [Tuner_pin], [Tuner_flip], [Tuner_expire]).  The
    tuner never reads the clock: callers time each launch and pass the
    duration to {!record}.

    Arms must be immediate values (constant constructors): they are
    compared physically. *)

type 'a state

type 'a t = private {
  mutable arm : 'a;
      (** the arm the next launch must run: the pin, or the sampler's
          pick.  Dispatch reads this field directly. *)
  st : 'a state;
}

val create : scope:string -> id:int -> name:('a -> string) -> 'a list -> 'a t
(** A tuner sampling [arms] (non-empty) from scratch. *)

val record : 'a t -> 'a -> float -> unit
(** [record t arm dt]: a launch of [arm] took [dt] seconds.  A sample
    that completes a sampling window pins the winner. *)

val drop : 'a t -> 'a -> unit
(** Retire an arm for good (e.g. a native kernel that failed launch
    validation).  A pin on it moves to the next live arm, keeping its
    budget; a sampling window simply stops waiting for it. *)

val freeze : 'a t -> 'a -> detail:string -> unit
(** Pin [arm] permanently (journaled as a [Tuner_pin] with [detail]);
    the pin never expires, so the other arms never re-sample. *)

val live : 'a t -> 'a -> bool
(** [arm] is one of the tuner's arms and not dropped. *)

val best : 'a t -> 'a -> float
(** Fastest sample of [arm] in the current window; [infinity] when it
    has none or was dropped. *)

val pinned : 'a t -> 'a option
(** The pinned arm; [None] while sampling. *)

val label : 'a t -> string
(** The pinned arm's name, or ["sampling"]. *)

val frozen : 'a t -> bool
val total : 'a t -> float
val launches : 'a t -> int
