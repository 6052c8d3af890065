(** The vectorised plan of a [Parallel] loop: each body statement runs
    once across every iteration, on values that carry the iterations as
    a leading axis.

    The plan is plain data aligned with the body's instructions, built
    at prepare time from the loop's {!Loop_plan.t}. *)

open Functs_ir

type vact =
  | V_once  (** iteration-invariant: the batched action, run once *)
  | V_skip
  | V_axis of int
      (** [select(base, dim, i)] of an invariant base: the base narrowed
          to [\[0, trip)] along [dim], that dim moved first *)
  | V_view of Op.view_kind  (** select/slice/identity of a vector value *)
  | V_op of int
      (** an engine op (unary, binary, where, clone) with a vector
          operand, computed straight into the region of write [w], or
          [-1] *)
  | V_write  (** a leaf write of every iteration's region at once *)

type t = {
  vp_acts : vact array;  (** aligned with the body's [bi_insts] *)
  vp_vec : (int, unit) Hashtbl.t;  (** slots holding vector values *)
}

val plan : Frame.binst -> Loop_plan.t -> t option
(** [None] unless the induction variable appears only as a select index
    (of an invariant base, or once on each write path), every
    iteration-dependent value comes from views or engine ops, there is
    no copy-producing assign, and no iteration-dependent value is
    returned. *)

val exec :
  Frame.t ->
  Frame.binst ->
  Loop_plan.t ->
  t ->
  int ->
  Functs_interp.Value.t array ->
  Functs_tensor.Tensor.t option array ->
  bool
(** [exec rs body plan vplan trip inits bufs] runs the loop on the
    shared buffers; [false], with nothing written, when a select or
    write region does not cover the trip — the caller then runs the
    batched plan. *)
