(** A run's frame: the slot-indexed values of one {!Scheduler.run}, the
    live-reference counts that decide when a buffer goes back to the
    storage pool or may be donated, and per-node execution of one
    instruction against it.

    Every value of a prepared graph has a dense frame slot and every
    block is an instruction array with pre-resolved slots, so the
    run-time environment is a flat array.  Live references are counted
    on the storage itself ({!Functs_tensor.Storage.mark}), tagged with
    the run's epoch; caller-owned storages carry a large bias, so they
    are never pooled or donated. *)

open Functs_ir
open Functs_tensor
open Functs_interp

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Functs_interp.Eval.Runtime_error} with a formatted message. *)

type inst = {
  i_node : Graph.node;
  i_in : int array;  (** frame slots of the node's inputs *)
  i_out : int array;  (** frame slots of the node's outputs *)
  i_gid : int;  (** fusion group the instruction launches with, or -1 *)
  mutable i_last : bool;  (** last member of its group: the launch point *)
}

type binst = {
  bi_insts : inst array;
  bi_params : int array;
  bi_rets : int array;
  bi_pre : inst array;
      (** loop-invariant accesses hoisted out of this loop body, run once
          in the caller's scope before the first iteration *)
}

type counts = {
  mutable cjit_runs : int;  (** native launches *)
  mutable jit_fallbacks : int;
  mutable donations : int;
  mutable parallel_loops : int;
  mutable vector_loops : int;
}
(** Engine-lifetime counters: the engine owns one record and every
    run's frame updates it. *)

val counts : unit -> counts
(** All zero. *)

type t = {
  vals : Value.t option array;  (** slot -> bound value *)
  remaining : int array;  (** slot -> uses left before release *)
  epoch : int;  (** this run's storage-mark epoch *)
  live : bool;  (** mutation-free graph: pooling and donation active *)
  alloc : Shape.t -> Tensor.t;
      (** output buffers for the per-node path: the storage pool when
          [live].  Caller-domain only — the pool's free lists are not
          thread-safe. *)
  uses : int array;  (** per slot: consuming edges in the defining block *)
  pinned : bool array;  (** per slot: never release or donate *)
  pool : Buffer_plan.pool;  (** the engine's storage pool *)
  counts : counts;  (** the engine's *)
}

val create :
  nslots:int ->
  live:bool ->
  uses:int array ->
  pinned:bool array ->
  pool:Buffer_plan.pool ->
  counts:counts ->
  foreign:Value.t list ->
  t
(** A fresh frame in a new epoch, with the tensors of [foreign] (the
    caller's arguments) marked foreign. *)

val sref_count : t -> Tensor.t -> int
(** Live references to the tensor's storage in this run. *)

val retain : t -> Value.t -> unit
val unretain : t -> Value.t -> unit

val get : t -> int -> Value.t
(** @raise Functs_interp.Eval.Runtime_error on an unbound slot. *)

val bind : t -> int list ref -> int -> Value.t -> unit
(** [bind rs scope slot v] binds [v], resets the slot's use count and
    records the slot in [scope] for {!exit_scope}. *)

val consume_all : t -> int array -> unit
(** One use of each slot; a slot whose uses run out is released, its
    buffers going back to the pool when no reference is left. *)

val exit_scope : t -> int list ref -> unit
(** Release every slot bound in the scope. *)

val note_donation : t -> unit
(** Count one in-place write (engine and process-wide counters). *)

val write_region : Tensor.t -> Tensor.t -> unit
(** [write_region region src] copies [src] into the view [region]. *)

val exec_plain_inst : t -> int list ref -> inst -> unit
(** Run one instruction per node: zero-copy views, donated or
    copy-on-write assigns, everything else through {!Fastops}; binds
    the outputs and consumes the inputs.  The per-instruction helpers
    above live in this module so the dev profile's [-opaque] builds
    still inline them here. *)
