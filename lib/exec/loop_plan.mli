(** The batched plan of a loop the dependence analysis cleared as
    {!Functs_core.Loop_par} [Parallel], and the code that runs it.

    The plan is plain data, built once at prepare time: an action per
    body instruction with every slice descriptor resolved to frame
    slots.  [Sliced] carried tensors become shared buffers written in
    place through one leaf write per recognized rebuild chain, so
    results are bitwise-identical at any lane count. *)

open Functs_ir
open Functs_core
open Functs_interp

type lwrite = {
  wr_buf : int;  (** carried slot whose shared buffer is written *)
  wr_steps : (Op.view_kind * int array) array;  (** view path to the leaf *)
  wr_leaf_kind : Op.view_kind;
  wr_leaf_ops : int array;
  wr_src : int;  (** slot of the value stored at the leaf *)
  wr_out : int;  (** output slot, rebound to the shared buffer *)
}

type laction =
  | L_plain  (** {!Fastops.apply_op} on the chunk's private frame *)
  | L_skip  (** rebuild-chain assign subsumed by an outer [L_write] *)
  | L_view of Op.view_kind  (** zero-copy access *)
  | L_assign of Op.view_kind  (** copy-producing assign *)
  | L_write of lwrite  (** leaf write into a shared carried buffer *)

type t = {
  lp_sliced : bool array;
      (** per carried slot: [Sliced] (a shared buffer written in place),
          else [Passthrough] *)
  lp_donate : bool array;
      (** per carried slot: the loop is the init's only use, in the same
          block, and the init is no graph parameter — a run may adopt it
          as the shared buffer when nothing else references it *)
  lp_actions : laction array;  (** aligned with the body's [bi_insts] *)
}

val donatable : Graph.t -> Graph.node -> int -> bool
(** [donatable graph loop j]: carried slot [j]'s init may become the
    buffer the loop writes in place — the loop is its only use, in the
    same block, and it is no graph parameter. *)

val adopt_or_clone :
  Frame.t -> donate:bool -> Functs_tensor.Tensor.t -> Functs_tensor.Tensor.t
(** The init itself when [donate] holds and its storage has no other
    live reference (counted as a donation), else a pooled clone. *)

val build :
  Graph.t ->
  slot:(Graph.value -> int option) ->
  Graph.node ->
  Loop_par.info ->
  Frame.binst ->
  t option
(** [build graph ~slot loop info body]: [None] when a carried slot is
    [Reduced], a descriptor has no frame slot or a chain is malformed —
    the loop then stays sequential. *)

val carried_buffers : Frame.t -> t -> Value.t array -> Functs_tensor.Tensor.t option array
(** The shared buffer of each [Sliced] slot: the init itself when the
    plan allows donation and its storage has no other live reference,
    else a pooled clone. *)

val exec :
  Frame.t ->
  pool:Pool.t ->
  Frame.binst ->
  t ->
  int ->
  Value.t array ->
  Functs_tensor.Tensor.t option array ->
  unit
(** [exec rs ~pool body plan trip inits bufs] runs every iteration on
    the shared buffers, one chunk per iteration, handed to
    {!Pool.parallel_for}, which fans them out across lanes or runs them
    all on the caller.  A chunk on the run's own domain draws its
    iteration scratch from the storage pool and returns it at the end of
    each iteration; a chunk on a worker domain allocates fresh. *)

val bind_outputs :
  Frame.t ->
  scope:int list ref ->
  Frame.inst ->
  t ->
  Value.t array ->
  Functs_tensor.Tensor.t option array ->
  unit
(** Bind the loop's outputs (shared buffers, passed-through inits) and
    consume its inputs. *)
