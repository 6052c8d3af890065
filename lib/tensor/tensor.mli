(** Strided tensor views over shared storage.

    A tensor is a descriptor [(storage, offset, shape, strides)].  View
    operators ({!select}, {!slice}, {!permute}, {!expand}, {!reshape} on
    contiguous tensors, …) return new descriptors over the {e same} storage,
    so writing through a view mutates every tensor sharing that storage —
    exactly the PyTorch aliasing semantics the paper's functionalization
    pass must eliminate. *)

type t = {
  storage : Storage.t;
  offset : int;
  shape : Shape.t;
  strides : int array;
}

(** {1 Creation} *)

val zeros : Shape.t -> t
val ones : Shape.t -> t
val full : Shape.t -> float -> t
val scalar : float -> t
(** A 0-d tensor. *)

val of_array : Shape.t -> float array -> t
(** Copy the flat row-major data into fresh storage.
    @raise Invalid_argument on element-count mismatch. *)

val of_storage : Storage.t -> Shape.t -> t
(** View an existing storage as a contiguous row-major tensor (offset 0) —
    the buffer-reuse constructor used by the executor's storage pool.
    @raise Invalid_argument on element-count mismatch. *)

val uninit : Shape.t -> t
(** Contiguous tensor over {e uninitialised} storage.  Only for callers
    that overwrite every element before the tensor is read (bulk copies,
    kernel scratch outputs) — skipping the zero fill halves the memory
    traffic of a fill-then-read cycle. *)

val arange : int -> t
(** [arange n] is the 1-d tensor [0.; 1.; …; n-1.]. *)

val rand : Random.State.t -> Shape.t -> t
(** Uniform values in [[0, 1)] from the given PRNG state. *)

(** {1 Inspection} *)

val shape : t -> Shape.t
val ndim : t -> int
val numel : t -> int
val is_contiguous : t -> bool
val same_storage : t -> t -> bool
val get : t -> int array -> float
val set : t -> int array -> float -> unit
val item : t -> float
(** The single element of a 0-d or 1-element tensor.
    @raise Invalid_argument otherwise. *)

val to_flat_array : t -> float array
(** Row-major copy of the logical contents. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val allclose : ?atol:float -> ?rtol:float -> t -> t -> bool
(** Element-wise approximate equality; false on shape mismatch. *)

(** {1 View operators (alias the storage)} *)

val select : t -> dim:int -> int -> t
(** Drop dimension [dim] at the given index, e.g. [select x ~dim:0 i = x[i]]. *)

val slice : t -> dim:int -> start:int -> stop:int -> step:int -> t
(** Python-style [x[start:stop:step]] along [dim]; [step >= 1].  [start] and
    [stop] are clamped like Python slices; negative values count from the
    end. *)

val narrow : t -> dim:int -> start:int -> len:int -> t

val permute : t -> int array -> t
(** Reorder dimensions; the argument must be a permutation of [0..ndim-1]. *)

val transpose : t -> dim0:int -> dim1:int -> t

val expand : t -> Shape.t -> t
(** Broadcast size-1 dimensions to the requested sizes using stride 0. *)

val reshape_view : t -> Shape.t -> t
(** Reinterpret a {e contiguous} tensor under a new shape of equal element
    count.  @raise Invalid_argument if non-contiguous or count mismatch. *)

val unsqueeze : t -> dim:int -> t
val squeeze : t -> dim:int -> t

(** {1 Copies} *)

val clone : t -> t
(** Deep copy into fresh contiguous storage. *)

val contiguous : t -> t
(** The tensor itself when already contiguous, otherwise a clone. *)

val reshape : t -> Shape.t -> t
(** Like {!reshape_view} but clones first when the layout requires it.  The
    result may or may not alias the input, as in PyTorch. *)

val concat_axis : dim:int -> t list -> t
(** Concatenate along [dim] into fresh contiguous storage: {!uninit}
    plus {!concat_axis_into}.
    @raise Invalid_argument on an empty list or mismatched shapes. *)

val concat_axis_into : dim:int -> t list -> t -> unit
(** [concat_axis_into ~dim parts out] writes the concatenation of
    [parts] along [dim] into [out], which must be contiguous and of
    exactly the concatenated shape.  All parts must agree on every other
    dimension.  Data moves as whole [dim..last] blocks via [Array.blit]
    — the serving layer's batched {e scatter} of N requests into one
    batch-major buffer it owns and reuses.
    @raise Invalid_argument on an empty list, mismatched parts or a
    destination of the wrong shape or layout. *)

(** {1 Traversal} *)

val iteri : t -> (int array -> float -> unit) -> unit
(** Visit elements in row-major logical order; the index array is reused. *)

val mapi_inplace : t -> (int array -> float -> float) -> unit
(** Overwrite each element with the function of its index and old value,
    writing through the view into shared storage. *)
