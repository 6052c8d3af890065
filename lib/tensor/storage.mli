(** Flat float buffers shared between tensor views.

    A storage is the unit of aliasing: two tensors alias exactly when they
    reference the same storage, compared by physical identity.  Storages
    are records with mutable fields, so every storage made is distinct
    from every other, whichever domain made it. *)

type t

val create : int -> t
(** Fresh zero-filled storage of the given element count. *)

val of_array : float array -> t
(** Wrap the array without copying; the caller must not reuse it. *)

val length : t -> int

val get : t -> int -> float
val set : t -> int -> float -> unit

val data : t -> float array
(** The backing array itself, for tight executor loops.  Writes through it
    are visible to every view of the storage. *)

val same : t -> t -> bool
(** Physical identity — the aliasing test. *)

val copy : t -> t
(** Deep copy into a new storage. *)

val mark : t -> epoch:int -> int
(** Epoch-tagged scratch counter for clients that track per-pass state
    (e.g. an executor's live-reference counts) without a side table.  Reads
    from a different epoch see 0, so a new pass needs no reset sweep. *)

val set_mark : t -> epoch:int -> int -> unit

val owner : t -> int
(** Allocator tag, 0 for plain storages.  A buffer pool stamps its own id
    here so ownership tests are an integer compare, not a table lookup. *)

val set_owner : t -> int -> unit
