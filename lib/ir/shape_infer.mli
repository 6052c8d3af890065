(** Static shape inference over the graph IR.

    Works with partial shapes: each dimension is either [Known n] or
    [Unknown] (e.g. the length of a slice with runtime bounds), and a
    value's shape may be wholly unknown.  Loop-carried shapes are joined
    with the body's recomputed shapes until stable, so a carried tensor
    whose shape changes across iterations degrades gracefully to
    [Unknown] dimensions instead of mis-reporting.

    [infer] never raises on well-typed graphs; shape {e mismatches}
    (e.g. a matmul whose inner dimensions are both known and different)
    are collected and returned as diagnostics. *)

type dim = Known of int | Unknown

type shape = dim array
(** Rank is always known when a shape is present. *)

type result = {
  shapes : (int, shape) Hashtbl.t;  (** value id → shape (absent: unknown) *)
  diagnostics : string list;  (** detected inconsistencies, printable *)
}

val infer : Graph.t -> inputs:shape option list -> result
(** [inputs] pairs with the graph parameters; scalar parameters take
    [None]. *)

val known : int array -> shape
(** All-known shape from concrete sizes. *)

val concrete : shape -> int array option
(** The sizes when every dimension is known. *)

val shape_of : result -> Graph.value -> shape option
val to_string : shape -> string

val matches : shape -> int array -> bool
(** Does the partial shape agree with a concrete runtime shape? *)

val extent : shape -> int -> int option
(** The known extent at an axis; [None] when out of rank or [Unknown]. *)

val constant_int : Graph.value -> int option
(** The value of an integer [prim::Constant]; [None] for anything else. *)

val scale_axis : shape -> axis:int -> factor:int -> shape option
(** Predict a batched shape: the extent at [axis] multiplied by [factor]
    (e.g. a per-request [[1; 128]] carried to [[16; 128]] for a 16-bucket
    compile).  [None] when the axis is out of rank or unknown — the
    serving layer reads that as "not batchable along this axis". *)
