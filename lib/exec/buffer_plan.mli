(** Buffer planning for the fused executor: static liveness over the graph
    plus a storage pool that recycles dead buffers.

    The analysis is a per-block use count.  A value whose uses all lie in
    its own block dies after its last consuming node; the scheduler then
    returns its storage to the pool (or donates it in place to an
    [immut::assign]).  Values that escape their block instance — block
    returns, reads from nested blocks (re-read every iteration), operands
    of control flow or list containers — are {e pinned}: never counted
    down, never donated. *)

open Functs_ir
open Functs_tensor

type usage = {
  u_uses : int;  (** consuming input edges within the defining block *)
  u_pinned : bool;  (** never release or donate (escapes its block) *)
}

val analyze : Graph.t -> (int, usage) Hashtbl.t
(** Value id → usage.  Values without an entry are treated as pinned. *)

(** {1 Storage pool} *)

type pool

val create_pool : unit -> pool

val alloc : pool -> Shape.t -> Tensor.t
(** A contiguous tensor of the given shape: a recycled storage of the same
    element count when one is free, otherwise a fresh allocation.  The
    contents are unspecified — callers overwrite every element. *)

val release : pool -> Tensor.t -> unit
(** Return a dead tensor's storage to the free list.  Only storages the
    pool allocated are accepted; anything else (and double releases) is
    ignored, so callers may release indiscriminately. *)

val clear : pool -> unit
(** Drop all parked storages from the free lists (and un-stamp them), so
    an evicted engine's pool stops holding memory.  Live checked-out
    tensors are untouched. *)

val fresh_allocs : pool -> int
val reuses : pool -> int
(** Counters for the engine's statistics. *)
