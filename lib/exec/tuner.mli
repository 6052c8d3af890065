(** Expiring-pin, min-of-N auto-tuner over a fixed list of arms — the
    one decision procedure behind the scheduler's per-group dispatch
    arms ([c-jit]/[per_node]) and per-loop plans
    ([vector]/[inline]/[dispatch]/[seq]).

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
    - Arms can be {b dropped} ({!drop}) and {b added} back ({!add}): a
      group's [c-jit] arm starts dropped and is added when its
      background compile finishes; only the added arm then samples.

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
(** Retire an arm (e.g. a native kernel that failed launch validation,
    or one whose code is not compiled yet).  A pin on it moves to the
    next live arm, keeping its budget; a sampling window simply stops
    waiting for it. *)

val add : 'a t -> 'a -> unit
(** The mirror of {!drop}: bring a dropped arm back (e.g. a native
    kernel whose background compile finished).  On a pinned tuner only
    that arm re-samples: the incumbent is seeded with its best launch,
    as on expiry, the other live arms keep their last samples, and
    after three launches of the new arm the fastest is pinned (a
    [Tuner_pin], or a [Tuner_flip] when the new arm wins).  A sampling
    tuner adds it to the window; a frozen one keeps its pin.  A live
    arm is left as it is. *)

val freeze : 'a t -> 'a -> detail:string -> unit
(** Pin [arm] permanently (journaled as a [Tuner_pin] with [detail]);
    the pin never expires, so the other arms never re-sample. *)

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
