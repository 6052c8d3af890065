(** Cross-iteration dependence analysis for TensorSSA loops.

    Classifies every [prim::Loop] into a three-point lattice:

    - [Parallel] — distinct iterations provably touch disjoint regions of
      the carried tensors, so they can execute concurrently on shared
      buffers and the result is bitwise-identical to sequential order;
    - [Reduction of op] — some carried value is an associative
      accumulator ([add]/[mul]/[max]/[min]) combined exactly once per
      iteration, so the loop splits into chunked partial accumulators
      merged in chunk order;
    - [Sequential of reason] — a genuine loop-carried dependence (or a
      pattern the analysis cannot prove safe); the recorded reason is
      surfaced in traces and [functs stats].

    The proof obligations are discharged on the functionalized form:
    affine index expressions [a·i + b] in the induction variable are
    tracked through [immut::select]/[immut::slice] access and assign
    chains on the carried tensors; a write is disjoint across iterations
    when its component path contains a {e witness} component — a
    select/slice indexed affinely by [i] with unit coefficient-covering
    width, preceded only by rank-preserving slices — and every
    non-rebuild read of the same carried slot is confined to the same
    witness region.  Rebuild chains (the nested
    [y_k = assign(x_k, y_(k+1))] ladders functionalization produces for
    multi-component subscript writes) are recognized so the executor can
    replay them as a single in-place leaf write. *)

open Functs_ir

type step = { st_kind : Op.view_kind; st_ops : Graph.value list }
(** One component of a subscript path: the view kind plus the index
    operand values it consumes ([idx] for select, [lo; hi] for slice). *)

type write = {
  w_slot : int;  (** carried slot the write lands in *)
  w_steps : step list;
      (** view steps from the carried tensor down to the leaf region's
          base, outermost first *)
  w_leaf : step;  (** the region written at the leaf *)
  w_src : Graph.value;  (** the value stored there *)
}
(** Execution descriptor for the outermost [immut::assign] of a write:
    apply [w_steps] as zero-copy views of the carried buffer, then write
    [w_src] through the [w_leaf] region in place. *)

type role =
  | Sliced  (** written through iteration-disjoint slices *)
  | Reduced of {
      op : Functs_tensor.Scalar.binary;
      acc_pos : int;  (** operand position of the accumulator *)
      combine : Graph.node;  (** the [aten::op] folding the accumulator *)
    }
  | Passthrough  (** returned unchanged every iteration *)

type info = {
  roles : role array;  (** per carried slot *)
  writes : (int, write) Hashtbl.t;
      (** outermost [immut::assign] node id → in-place write descriptor *)
  skips : (int, unit) Hashtbl.t;
      (** rebuild-chain assign node ids subsumed by an outer write *)
}

type verdict =
  | Parallel of info
  | Reduction of Functs_tensor.Scalar.binary * info
  | Sequential of string  (** recorded reason *)

val classify : Graph.t -> Graph.node -> verdict
(** [classify g loop] analyzes a [prim::Loop] node of [g].  Anything the
    analysis cannot prove safe — nested control flow, non-affine or
    overlapping subscripts, stale aliases, crossed carried slots,
    non-associative accumulators — yields [Sequential reason]. *)

val reason : verdict -> string option
(** The recorded reason of a [Sequential] verdict. *)
