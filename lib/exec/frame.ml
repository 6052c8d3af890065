open Functs_ir
open Functs_tensor
open Functs_interp
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics

let error fmt = Format.kasprintf (fun m -> raise (Eval.Runtime_error m)) fmt

(* Process-wide aggregate of every engine's in-place writes. *)
let donations_c = Metrics.counter "exec.donations"

(* Every value of the graph gets a dense frame slot at preparation time and
   each block becomes an instruction array with pre-resolved slots, so the
   run-time environment is a flat array instead of a hashtable — the
   executor's dispatch must cost less than the tree-walking interpreter's
   or the bookkeeping eats the fusion gains on small tensors. *)
type inst = {
  i_node : Graph.node;
  i_in : int array;  (* frame slots of the node's inputs *)
  i_out : int array;  (* frame slots of the node's outputs *)
  i_gid : int;
      (* fusion group this instruction launches with, or -1.  Groups
         under a loop keep their gid too: their native kernels are
         compiled once and relaunched every iteration. *)
  mutable i_last : bool;  (* last member of its group: the launch point *)
}

type binst = {
  bi_insts : inst array;
  bi_params : int array;
  bi_rets : int array;
  bi_pre : inst array;
      (* loop-invariant accesses hoisted out of this loop body, executed
         once in the caller's scope before the first iteration *)
}

(* Engine-lifetime counters: the engine owns one record and every run's
   frame updates it. *)
type counts = {
  mutable cjit_runs : int;  (* native launches *)
  mutable jit_fallbacks : int;
  mutable donations : int;
  mutable parallel_loops : int;
  mutable vector_loops : int;
}

let counts () =
  {
    cjit_runs = 0;
    jit_fallbacks = 0;
    donations = 0;
    parallel_loops = 0;
    vector_loops = 0;
  }

(* --- per-run state --- *)

type t = {
  vals : Value.t option array;  (* slot -> bound value *)
  remaining : int array;  (* slot -> uses left before release *)
  epoch : int;  (* this run's {!Storage.mark} epoch *)
  live : bool;
  alloc : Shape.t -> Tensor.t;
      (* output buffers for the per-node path: the engine's storage pool
         in live mode, so intermediates recycle instead of hitting the
         major heap on every node.  Caller-domain only — the pool's free
         lists are not thread-safe, so batched-loop chunks run on worker
         domains allocate fresh. *)
  uses : int array;  (* per slot: consuming edges in the defining block *)
  pinned : bool array;  (* per slot: never release or donate *)
  pool : Buffer_plan.pool;  (* the engine's storage pool *)
  par : Functs_jit.Jit.par option;  (* the engine's parallel-for *)
  counts : counts;  (* the engine's *)
}

(* Live-reference counts live in an epoch-tagged field on the storage
   itself ({!Storage.mark}) rather than a hashtable: the executor's fixed
   per-node cost has to undercut the interpreter's for fusion to show on
   overhead-bound workloads.  Caller-owned storages get a large bias so
   their count can never reach 0 (pooled) or 1 (donated).  Epochs are
   process-wide: no storage may see one twice, whichever engine runs. *)
let run_epoch = Atomic.make 0
let foreign_bias = 1_000_000

let rec iter_value_tensors v f =
  match v with
  | Value.Tensor t -> f t
  | Value.List l -> List.iter (fun x -> iter_value_tensors x f) l
  | Value.Int _ | Value.Float _ | Value.Bool _ -> ()

let create ~nslots ~live ~uses ~pinned ~pool ~par ~counts ~foreign =
  let epoch = Atomic.fetch_and_add run_epoch 1 + 1 in
  List.iter
    (fun v ->
      iter_value_tensors v (fun (t : Tensor.t) ->
          let st = t.Tensor.storage in
          Storage.set_mark st ~epoch (Storage.mark st ~epoch + foreign_bias)))
    foreign;
  {
    vals = Array.make nslots None;
    remaining = Array.make nslots 0;
    epoch;
    live;
    alloc = (if live then Buffer_plan.alloc pool else Tensor.zeros);
    uses;
    pinned;
    pool;
    par;
    counts;
  }

let sref_count rs (t : Tensor.t) = Storage.mark t.Tensor.storage ~epoch:rs.epoch

let sref_incr rs (t : Tensor.t) =
  let st = t.Tensor.storage in
  Storage.set_mark st ~epoch:rs.epoch (Storage.mark st ~epoch:rs.epoch + 1)

let sref_decr rs (t : Tensor.t) =
  let st = t.Tensor.storage in
  let n = max 0 (Storage.mark st ~epoch:rs.epoch - 1) in
  Storage.set_mark st ~epoch:rs.epoch n;
  n

(* [Value.Tensor] is matched inline everywhere below: the generic
   [iter_value_tensors] partial application allocates a closure per call,
   which shows up on overhead-bound workloads. *)
let retain rs value =
  if rs.live then
    match value with
    | Value.Tensor t -> sref_incr rs t
    | Value.List _ -> iter_value_tensors value (fun t -> sref_incr rs t)
    | Value.Int _ | Value.Float _ | Value.Bool _ -> ()

let unretain rs value =
  if rs.live then
    match value with
    | Value.Tensor t -> ignore (sref_decr rs t)
    | Value.List _ ->
        iter_value_tensors value (fun t -> ignore (sref_decr rs t))
    | Value.Int _ | Value.Float _ | Value.Bool _ -> ()

let get rs slot =
  match rs.vals.(slot) with
  | Some value -> value
  | None -> error "unbound value (frame slot %d)" slot

let bind rs scope slot value =
  rs.vals.(slot) <- Some value;
  if rs.live then begin
    rs.remaining.(slot) <- rs.uses.(slot);
    (match value with
    | Value.Tensor t -> sref_incr rs t
    | Value.List _ -> iter_value_tensors value (fun t -> sref_incr rs t)
    | Value.Int _ | Value.Float _ | Value.Bool _ -> ());
    scope := slot :: !scope
  end

let release_slot rs slot =
  match rs.vals.(slot) with
  | None -> ()
  | Some value ->
      (match value with
      | Value.Tensor t -> if sref_decr rs t = 0 then Buffer_plan.release rs.pool t
      | Value.List _ ->
          iter_value_tensors value (fun t ->
              if sref_decr rs t = 0 then Buffer_plan.release rs.pool t)
      | Value.Int _ | Value.Float _ | Value.Bool _ -> ());
      rs.vals.(slot) <- None

let consume rs slot =
  if rs.live && not rs.pinned.(slot) then begin
    rs.remaining.(slot) <- rs.remaining.(slot) - 1;
    if rs.remaining.(slot) <= 0 then release_slot rs slot
  end

let consume_all rs slots =
  if rs.live then
    for k = 0 to Array.length slots - 1 do
      consume rs slots.(k)
    done

let exit_scope rs scope = if rs.live then List.iter (release_slot rs) !scope

(* --- assign donation --- *)

let note_donation rs =
  rs.counts.donations <- rs.counts.donations + 1;
  Metrics.incr donations_c

let write_region ?par (region : Tensor.t) (src : Tensor.t) =
  if Tensor.numel region = 1 && Tensor.numel src = 1 then
    (* the sole element of any one-element view sits at its offset *)
    (Storage.data region.Tensor.storage).(region.Tensor.offset) <-
      (Storage.data src.Tensor.storage).(src.Tensor.offset)
  else Fastops.copy_into ?par region src

(* In-place execution of [immut::assign] when the base dies here and its
   storage has no other live reference: write the region through the view
   instead of cloning the whole base. *)
let try_donate rs (inst : inst) inputs =
  match (inst.i_node.n_op, inputs) with
  | Op.Assign kind, Value.Tensor bt :: src :: operands ->
      let bslot = inst.i_in.(0) in
      if
        (not rs.pinned.(bslot))
        && rs.remaining.(bslot) = 1
        && sref_count rs bt = 1
      then begin
        let src_t = Value.to_tensor src in
        if Tensor.same_storage bt src_t then None
        else begin
          write_region ?par:rs.par (Eval.apply_view_kind kind bt operands) src_t;
          note_donation rs;
          Tracer.instant "exec.donate";
          Some [ Value.Tensor bt ]
        end
      end
      else None
  | _ -> None

(* --- clone of a dying temporary ---

   [aten::clone] binds its input itself when no one can tell: the input's
   slot is unpinned, the clone is its last use, no other live reference
   shares its storage (caller arguments never qualify: their bias keeps
   the count high), and the tensor is the whole of its storage,
   contiguous, as a clone's result would be.  Not a donation: nothing is
   written in place. *)
let clone_reuses rs (inst : inst) (t : Tensor.t) =
  let slot = inst.i_in.(0) in
  (not rs.pinned.(slot))
  && rs.remaining.(slot) = 1
  && sref_count rs t = 1
  && t.Tensor.offset = 0
  && Tensor.is_contiguous t
  && Tensor.numel t = Storage.length t.Tensor.storage

(* --- per-node execution ---

   Kept beside the frame helpers it calls per instruction: the dev
   profile compiles with [-opaque], so nothing inlines across modules. *)

let exec_plain_inst rs scope (inst : inst) =
  let par = rs.par in
  let inputs =
    match Array.length inst.i_in with
    | 0 -> []
    | 1 -> [ get rs inst.i_in.(0) ]
    | 2 -> [ get rs inst.i_in.(0); get rs inst.i_in.(1) ]
    | 3 -> [ get rs inst.i_in.(0); get rs inst.i_in.(1); get rs inst.i_in.(2) ]
    | n -> List.init n (fun k -> get rs inst.i_in.(k))
  in
  let outputs =
    if not rs.live then Fastops.apply_op ?par inst.i_node inputs
    else
      match try_donate rs inst inputs with
      | Some outs -> outs
      | None -> (
          match (inst.i_node.n_op, inputs) with
          | Op.Access kind, base :: operands ->
              (* Zero-copy: aliases are tracked by [srefs], so the base can
                 neither be donated nor pooled while this view lives. *)
              [ Value.Tensor
                  (Eval.apply_view_kind kind (Value.to_tensor base) operands);
              ]
          | Op.Assign kind, base :: src :: operands ->
              (* Copy-on-write without donation: a strided bulk clone plus a
                 region write, instead of the interpreter's element-at-a-time
                 clone.  When the region covers the whole base, its old
                 contents never survive — clone the source alone. *)
              let bt = Value.to_tensor base in
              let src_t = Value.to_tensor src in
              let region = Eval.apply_view_kind kind bt operands in
              if
                Tensor.same_storage region bt
                && region.Tensor.offset = bt.Tensor.offset
                && Shape.equal (Tensor.shape region) (Tensor.shape bt)
                && Shape.equal (Tensor.shape region) (Tensor.shape src_t)
              then [ Value.Tensor (Fastops.clone ~alloc:rs.alloc ?par src_t) ]
              else begin
                let fresh = Fastops.clone ~alloc:rs.alloc ?par bt in
                write_region ?par (Eval.apply_view_kind kind fresh operands) src_t;
                [ Value.Tensor fresh ]
              end
          | Op.Clone, [ (Value.Tensor t as v) ] when clone_reuses rs inst t
            ->
              [ v ]
          | _ -> Fastops.apply_op ~alloc:rs.alloc ?par inst.i_node inputs)
  in
  (match outputs with
  | [ out ] -> bind rs scope inst.i_out.(0) out
  | outs -> List.iteri (fun k out -> bind rs scope inst.i_out.(k) out) outs);
  consume_all rs inst.i_in
