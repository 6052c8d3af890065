(** Shapes and strides of dense row-major tensors.

    A shape is an array of non-negative dimension sizes; a scalar tensor has
    the empty shape [[||]].  Strides are expressed in elements (not bytes). *)

type t = int array

val numel : t -> int
(** Number of elements, i.e. the product of all dimensions (1 for scalars). *)

val row_major_strides : t -> int array
(** Strides of a freshly allocated contiguous row-major tensor. *)

val equal : t -> t -> bool

val to_string : t -> string
(** E.g. [[|2; 3|]] prints as ["[2, 3]"]. *)

val pp : Format.formatter -> t -> unit

val broadcast : t -> t -> t
(** [broadcast a b] is the shape obtained by numpy-style broadcasting.
    @raise Invalid_argument if the shapes are incompatible. *)

val broadcastable : t -> t -> bool

val normalize_dim : ndim:int -> int -> int
(** Resolve a possibly negative dimension index.
    @raise Invalid_argument when out of range. *)

val normalize_index : size:int -> int -> int
(** Resolve a possibly negative element index within a dimension of the
    given size.  @raise Invalid_argument when out of range. *)

val iter_indices : t -> (int array -> unit) -> unit
(** Call the function once per multi-index, in row-major order.  The index
    array is reused between calls; callers must not retain it. *)
