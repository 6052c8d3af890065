open Functs_ir
open Functs_tensor
open Functs_core
open Functs_interp
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics
module Journal = Functs_obs.Journal
module Jit = Functs_jit.Jit

let error fmt = Format.kasprintf (fun m -> raise (Eval.Runtime_error m)) fmt

(* Process-wide observability counters (per-engine numbers live on
   [prepared] below; these aggregate across every engine in the process
   for `functs stats` / FUNCTS_METRICS). *)
let prepares_c = Metrics.counter "exec.prepares"
let runs_c = Metrics.counter "exec.runs"
let kernel_runs_c = Metrics.counter "exec.kernel_runs"
let donations_c = Metrics.counter "exec.donations"
let parallel_loops_c = Metrics.counter "exec.parallel_loops"
let reduction_loops_c = Metrics.counter "exec.reduction_loops"

(* Runtime demotions of a native group to per-node execution on a
   launch-validation failure. *)
let jit_demoted_c = Metrics.counter "jit.demoted"

(* A native launch and per-node execution trade differently per group
   (native code wins on big dense statements but pays launch validation;
   per-node execution runs each member through the strided engine), so
   each group is auto-tuned ({!Tuner}) over the arms it has: [Cjit] when
   a native kernel is armed, then [Per_node].  Dispatch-bound workloads
   (many tiny statements, e.g. yolact's box decode) used to be pinned to
   a slower native path because the JIT was tried unconditionally. *)
type garm = Cjit | Per_node

let garm_name = function Cjit -> "c-jit" | Per_node -> "per_node"

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
         compiled once at prepare time and relaunched every iteration,
         and the per-group auto-tuner demotes them to per-node execution
         whenever that is faster. *)
  mutable i_last : bool;  (* last member of its group: the launch point *)
}

(* Per-group dispatch state, held in a dense gid-indexed array on the
   prepared engine.  Sequential loop bodies touch every member
   instruction once per iteration, so this must be one array load away:
   the per-member hashtable probes (compiled? last member? mode?) this
   replaces were a measurable slice of loop-bound workloads (seq2seq
   walks ~50 member instructions × 128 iterations per run). *)
type group = {
  g_members : inst list;  (* in plan order *)
  mutable g_jit : Jit.entry option;
      (* native launcher; cleared (and its tuner arm dropped) on the
         first launch-time validation failure *)
  g_tuner : garm Tuner.t;
      (* dispatch arm, sampling state and wall-time attribution: every
         timed launch accumulates there, so per-group cost is free to
         collect and [attribution] can rank groups without
         re-instrumenting *)
}

type binst = {
  bi_insts : inst array;
  bi_params : int array;
  bi_rets : int array;
  bi_pre : inst array;
      (* loop-invariant accesses hoisted out of this loop body, executed
         once in the caller's scope before the first iteration *)
}

(* --- iteration batching for Parallel / Reduction loops ---

   For every loop the dependence analysis clears ({!Loop_par}), the body
   is compiled at prepare time into an action table aligned with its
   instruction array: in-place writes replay a recognized rebuild chain
   as one leaf write on the shared carried buffer, reduction combines
   fold into per-chunk partial accumulators, everything else runs as
   zero-copy views or plain fast-ops on a private frame.  Nothing is
   resolved per run or per iteration — the slice descriptors (operand
   slots, view kinds, buffer indices) are fixed here. *)
type lwrite = {
  wr_buf : int;  (* carried slot whose shared buffer is written *)
  wr_steps : (Op.view_kind * int array) array;  (* view path to the leaf *)
  wr_leaf_kind : Op.view_kind;
  wr_leaf_ops : int array;
  wr_src : int;  (* slot of the value stored at the leaf *)
  wr_out : int;  (* output slot, rebound to the shared buffer *)
}

type laction =
  | L_plain  (* Fastops.apply_op on the private frame *)
  | L_skip  (* rebuild-chain assign subsumed by an outer L_write *)
  | L_view of Op.view_kind  (* zero-copy access *)
  | L_assign of Op.view_kind  (* copy-producing assign (free/alias base) *)
  | L_write of lwrite
  | L_reduce of { rd_slot : int; rd_acc_pos : int }

(* Vectorised Parallel plans run each body statement once across every
   iteration.  A value that depends on the induction variable carries
   the iterations as a leading axis; everything else is computed once.
   The plan is aligned with the body's instructions:
   - [V_once]: iteration-invariant, the batched action run once;
   - [V_axis dim]: [select(base, dim, i)] of an invariant base, which
     becomes the base narrowed to [0, trip) along [dim], that dim
     moved first;
   - [V_view kind]: a select/slice/identity view of a vector value;
   - [V_op w]: an engine op (unary, binary, where, clone) with a vector
     operand; [w] is the write it computes straight into, or -1;
   - [V_write]: a leaf write, of every iteration's region at once. *)
type vact =
  | V_once
  | V_skip
  | V_axis of int
  | V_view of Op.view_kind
  | V_op of int
  | V_write

type vplan = {
  vp_acts : vact array;  (* aligned with the body's bi_insts *)
  vp_vec : (int, unit) Hashtbl.t;  (* slots holding vector values *)
}

(* Batched loops are auto-tuned between the vectorised plan (when the
   body has one), running all iterations inline on the caller,
   dispatching chunks across a pool of two or more lanes, and the
   sequential body (which keeps kernel fusion and donation): on small
   trip counts the pool handoff (~5us) can exceed the whole loop, and
   on kernel-heavy bodies (ssd) the batched per-node replay can lose to
   the sequential fused path outright — the [Seq] arm pins the
   sequential body when it measures fastest. *)
type larm = Vector | Inline | Dispatch | Seq

let larm_name = function
  | Vector -> "vector"
  | Inline -> "inline"
  | Dispatch -> "dispatch"
  | Seq -> "seq"

type lplan = {
  lp_roles : Loop_par.role array;  (* per carried slot *)
  lp_donate : bool array;
      (* per carried slot: the loop is the init's only use, in the same
         block, and the init is no graph parameter — so a run may adopt
         the init as the shared buffer when its storage has no other
         live reference *)
  lp_actions : laction array;  (* aligned with the body's bi_insts *)
  lp_vector : vplan option;
  lp_reduction : bool;  (* any Reduced slot: fixed chunking + merge *)
  lp_tuner : larm Tuner.t;
  lp_ops : string list;  (* the body's op names, for attribution *)
}

(* Distinct op names of [nodes] without their namespace, in order of
   first appearance ("matmul", "sigmoid", ...); constants are left out. *)
let op_names (nodes : Graph.node list) =
  List.fold_left
    (fun acc (n : Graph.node) ->
      let s = Op.name n.Graph.n_op in
      let s =
        match String.rindex_opt s ':' with
        | Some i -> String.sub s (i + 1) (String.length s - i - 1)
        | None -> s
      in
      match n.Graph.n_op with
      | Op.Constant _ -> acc
      | _ -> if List.mem s acc then acc else s :: acc)
    [] nodes
  |> List.rev

(* Reduction chunking is fixed (independent of pool lanes and of whether
   the dispatch ran inline), so domains=1/2/4 runs of the same prepared
   engine merge partials in the same order and stay bitwise-identical. *)
let reduce_max_chunks = 8

type prepared = {
  p_graph : Graph.t;
  p_plan : Fusion.plan;
  p_out_shapes : Shape_infer.shape option list;
      (* statically inferred shapes of the graph's return values, kept so
         serving-layer batching can check which output axis carries the
         request dimension without re-running inference *)
  p_nslots : int;
  p_consts : inst array;
      (* every [prim::Constant] of the graph, bound once per run instead of
         per iteration; their slots are pinned *)
  p_uses : int array;  (* per slot: consuming edges in the defining block *)
  p_pinned : bool array;  (* per slot: never release or donate *)
  p_blocks : (int, binst) Hashtbl.t;  (* block id -> instructions *)
  p_lplans : (int, lplan) Hashtbl.t;
      (* loop node id -> iteration-batching plan (Parallel/Reduction) *)
  p_slot : (int, int) Hashtbl.t;  (* value id -> slot (kernel-site lookup) *)
  p_groups : group option array;
      (* gid -> dispatch record, [None] for gids without registered
         member instructions *)
  p_in_shapes : Shape_infer.shape option list;
      (* per graph parameter: the shape the engine was prepared for.
         Native kernels bake these shapes in, so [run] rejects tensors of
         any other shape. *)
  p_scalar_slots : (string, int) Hashtbl.t;  (* kernel symbol -> slot *)
  p_live : bool;  (* mutation-free: pool / donation / kernels active *)
  p_parallel : bool;
  p_pool : Buffer_plan.pool;
  p_exec_pool : Pool.t;  (* persistent domain pool shared by all dispatches *)
  p_loop_grain : int;  (* minimum trip count before a loop runs batched *)
  p_kernel_grain : int;  (* elements per chunk for intra-kernel splits *)
  mutable s_cjit_runs : int;  (* native launches *)
  mutable s_jit_fallbacks : int;
  mutable s_donations : int;
  mutable s_parallel_loops : int;
  mutable s_reduction_loops : int;
  mutable s_vector_loops : int;
}

(* --- per-run state --- *)

type rstate = {
  vals : Value.t option array;  (* slot -> bound value *)
  remaining : int array;  (* slot -> uses left before release *)
  epoch : int;  (* this run's {!Storage.mark} epoch *)
  live : bool;
  alloc : Shape.t -> Tensor.t;
      (* output buffers for the per-node path: the engine's storage pool
         in live mode, so intermediates recycle instead of hitting the
         major heap on every node.  Caller-domain only — the pool's free
         lists are not thread-safe, so batched-loop chunks dispatched to
         worker domains allocate fresh. *)
  p : prepared;
}

(* Live-reference counts live in an epoch-tagged field on the storage
   itself ({!Storage.mark}) rather than a hashtable: the executor's fixed
   per-node cost has to undercut the interpreter's for fusion to show on
   overhead-bound workloads.  Caller-owned storages get a large bias so
   their count can never reach 0 (pooled) or 1 (donated). *)
let run_epoch = ref 0
let foreign_bias = 1_000_000

let rec iter_value_tensors v f =
  match v with
  | Value.Tensor t -> f t
  | Value.List l -> List.iter (fun x -> iter_value_tensors x f) l
  | Value.Int _ | Value.Float _ | Value.Bool _ -> ()

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
    rs.remaining.(slot) <- rs.p.p_uses.(slot);
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
      | Value.Tensor t ->
          if sref_decr rs t = 0 then Buffer_plan.release rs.p.p_pool t
      | Value.List _ ->
          iter_value_tensors value (fun t ->
              if sref_decr rs t = 0 then Buffer_plan.release rs.p.p_pool t)
      | Value.Int _ | Value.Float _ | Value.Bool _ -> ());
      rs.vals.(slot) <- None

let consume rs slot =
  if rs.live && not rs.p.p_pinned.(slot) then begin
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

let write_region (region : Tensor.t) (src : Tensor.t) =
  if Tensor.numel region = 1 && Tensor.numel src = 1 then
    (* the sole element of any one-element view sits at its offset *)
    (Storage.data region.Tensor.storage).(region.Tensor.offset) <-
      (Storage.data src.Tensor.storage).(src.Tensor.offset)
  else Fastops.copy_into region src

(* --- vector values ---

   A vector value carries a loop's iterations as its leading axis; its
   per-iteration dims follow. *)

(* A select/slice/identity view of a vector value: per-iteration dims
   shift by one. *)
let vector_view kind (v : Tensor.t) ops =
  let dim d = Shape.normalize_dim ~ndim:(Tensor.ndim v - 1) d + 1 in
  match (kind, ops) with
  | Op.Select { dim = d }, [ idx ] -> Tensor.select v ~dim:(dim d) (Value.to_int idx)
  | Op.Slice { dim = d; step }, [ lo; hi ] ->
      Tensor.slice v ~dim:(dim d) ~start:(Value.to_int lo)
        ~stop:(Value.to_int hi) ~step
  | _ -> Eval.apply_view_kind kind v ops

(* Rank-align a vector value to [rank] per-iteration dims: unit dims go
   right after the iteration axis, where per-iteration broadcasting
   would put them. *)
let align (t : Tensor.t) rank =
  let k = rank + 1 - Tensor.ndim t in
  if k <= 0 then t
  else
    let ins a v =
      Array.init (Array.length a + k) (fun d ->
          if d = 0 then a.(0) else if d <= k then v else a.(d - k))
    in
    { t with Tensor.shape = ins t.Tensor.shape 1; strides = ins t.Tensor.strides 0 }

(* Same elements at the same addresses (unit dims' strides are never
   used). *)
let same_view (t : Tensor.t) (r : Tensor.t) =
  t.Tensor.offset = r.Tensor.offset
  && Shape.equal t.Tensor.shape r.Tensor.shape
  && Array.for_all Fun.id
       (Array.mapi
          (fun d n -> n = 1 || t.Tensor.strides.(d) = r.Tensor.strides.(d))
          t.Tensor.shape)

(* In-place execution of [immut::assign] when the base dies here and its
   storage has no other live reference: write the region through the view
   instead of cloning the whole base. *)
let try_donate rs (inst : inst) inputs =
  match (inst.i_node.n_op, inputs) with
  | Op.Assign kind, Value.Tensor bt :: src :: operands ->
      let bslot = inst.i_in.(0) in
      if
        (not rs.p.p_pinned.(bslot))
        && rs.remaining.(bslot) = 1
        && sref_count rs bt = 1
      then begin
        let src_t = Value.to_tensor src in
        if Tensor.same_storage bt src_t then None
        else begin
          write_region (Eval.apply_view_kind kind bt operands) src_t;
          rs.p.s_donations <- rs.p.s_donations + 1;
          Metrics.incr donations_c;
          Tracer.instant "exec.donate";
          Some [ Value.Tensor bt ]
        end
      end
      else None
  | _ -> None

(* --- per-node execution --- *)

let exec_plain_inst rs scope (inst : inst) =
  let inputs =
    match Array.length inst.i_in with
    | 0 -> []
    | 1 -> [ get rs inst.i_in.(0) ]
    | 2 -> [ get rs inst.i_in.(0); get rs inst.i_in.(1) ]
    | 3 -> [ get rs inst.i_in.(0); get rs inst.i_in.(1); get rs inst.i_in.(2) ]
    | n -> List.init n (fun k -> get rs inst.i_in.(k))
  in
  let outputs =
    if not rs.live then Fastops.apply_op inst.i_node inputs
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
              then [ Value.Tensor (Fastops.clone ~alloc:rs.alloc src_t) ]
              else begin
                let fresh = Fastops.clone ~alloc:rs.alloc bt in
                write_region (Eval.apply_view_kind kind fresh operands) src_t;
                [ Value.Tensor fresh ]
              end
          | _ -> Fastops.apply_op ~alloc:rs.alloc inst.i_node inputs)
  in
  (match outputs with
  | [ out ] -> bind rs scope inst.i_out.(0) out
  | outs -> List.iteri (fun k out -> bind rs scope inst.i_out.(k) out) outs);
  consume_all rs inst.i_in

(* --- compiled group execution --- *)

let slot_of rs (v : Graph.value) = Hashtbl.find_opt rs.p.p_slot v.Graph.v_id

let scalar_lookup rs name =
  match Hashtbl.find_opt rs.p.p_scalar_slots name with
  | None -> None
  | Some slot -> (
      match rs.vals.(slot) with
      | Some (Value.Int i) -> Some i
      | Some (Value.Bool b) -> Some (if b then 1 else 0)
      | _ -> None)

let tensor_lookup rs (v : Graph.value) =
  match slot_of rs v with
  | None -> None
  | Some slot -> (
      match rs.vals.(slot) with Some (Value.Tensor t) -> Some t | _ -> None)

let bind_group_results rs scope gid members results =
  rs.p.s_cjit_runs <- rs.p.s_cjit_runs + 1;
  Metrics.incr kernel_runs_c;
  if Tracer.enabled () then
    Tracer.instant "kernel.outputs"
      ~args:
        [
          ("group", string_of_int gid);
          ( "elements",
            string_of_int
              (List.fold_left
                 (fun acc (_, t, _) -> acc + Tensor.numel t)
                 0 results) );
        ];
  List.iter
    (fun ((v : Graph.value), t, stored) ->
      if stored then
        match slot_of rs v with
        | Some slot -> bind rs scope slot (Value.Tensor t)
        | None -> error "kernel output %s has no frame slot" v.Graph.v_name
      else Buffer_plan.release rs.p.p_pool t)
    results;
  (* Sweep every member's input edges so external values retire. *)
  List.iter (fun (m : inst) -> consume_all rs m.i_in) members

(* One native launch; [false] when it failed launch-time validation
   (rank/extent mismatch, out-of-range dynamic index).  That demotes the
   group to per-node execution for good, and the caller reruns the same
   launch per node, so a JIT fallback is never user-visible. *)
let run_group_jit rs scope gid g entry =
  let allocated = ref [] in
  let alloc shape =
    let t = Buffer_plan.alloc rs.p.p_pool shape in
    allocated := t :: !allocated;
    t
  in
  let par =
    if rs.p.p_parallel then
      Some
        (fun ~grain ~bytes_per_iter ~n body ->
          ignore
            (Pool.parallel_for rs.p.p_exec_pool ~bytes_per_iter ~grain ~n
               body))
    else None
  in
  match
    Jit.run ?par ~grain:rs.p.p_kernel_grain entry ~alloc
      ~lookup:(tensor_lookup rs) ~scalar:(scalar_lookup rs)
  with
  | results ->
      bind_group_results rs scope gid g.g_members results;
      true
  | exception Jit.Fallback reason ->
      List.iter (Buffer_plan.release rs.p.p_pool) !allocated;
      g.g_jit <- None;
      Tuner.drop g.g_tuner Cjit;
      rs.p.s_jit_fallbacks <- rs.p.s_jit_fallbacks + 1;
      Metrics.incr jit_demoted_c;
      Tracer.instant "jit.fallback"
        ~args:[ ("group", string_of_int gid); ("reason", reason) ];
      Journal.record Jit_demote "scheduler.group" ~id:gid ~arm:"per_node"
        ~detail:("launch validation failed: " ^ reason);
      false
  | exception e ->
      List.iter (Buffer_plan.release rs.p.p_pool) !allocated;
      raise e

(* A timed launch of [arm], recorded with the tuner unless [f] reports
   that it did not run. *)
let timed_launch gid g arm f =
  let t0 = Unix.gettimeofday () in
  let ran =
    Tracer.span_args "kernel.launch"
      ~args:(fun () ->
        [ ("group", string_of_int gid); ("backend", garm_name arm) ])
      f
  in
  if ran then Tuner.record g.g_tuner arm (Unix.gettimeofday () -. t0);
  ran

(* Every arm launches at the group's last member: by then every
   out-of-group dependency (constants, scalar indices, access bases) is
   bound, and no non-member can consume a member's output earlier, since
   anything that breaks a run also ends the group. *)
let launch_group rs scope gid g =
  let native =
    match (g.g_tuner.Tuner.arm, g.g_jit) with
    | Cjit, Some entry ->
        timed_launch gid g Cjit (fun () -> run_group_jit rs scope gid g entry)
    | _ -> false
  in
  if not native then
    ignore
      (timed_launch gid g Per_node (fun () ->
           List.iter (exec_plain_inst rs scope) g.g_members;
           true))

(* --- blocks, control flow, loops --- *)

let block_insts rs (b : Graph.block) =
  match Hashtbl.find_opt rs.p.p_blocks b.Graph.b_id with
  | Some bi -> bi
  | None -> error "block %d was not prepared" b.Graph.b_id

let rec exec_block rs (bi : binst) : Value.t list =
  let scope = ref [] in
  Array.iter (exec_inst rs ~scope) bi.bi_insts;
  let rets =
    Array.to_list (Array.map (fun slot -> get rs slot) bi.bi_rets)
  in
  List.iter (retain rs) rets;
  exit_scope rs scope;
  (* Each return carries one retained reference the caller must drop after
     rebinding it. *)
  rets

and exec_inst rs ~scope (inst : inst) =
  let node = inst.i_node in
  match node.n_op with
  | Op.Update -> consume_all rs inst.i_in
  | Op.If -> begin
      match node.n_blocks with
      | [ then_b; else_b ] ->
          let taken = Value.to_bool (get rs inst.i_in.(0)) in
          let bi = block_insts rs (if taken then then_b else else_b) in
          if Array.length bi.bi_insts = 0 && Array.length bi.bi_pre = 0 then begin
            (* empty branch: rebind the pass-through values directly *)
            if Array.length bi.bi_rets <> Array.length inst.i_out then
              error "prim::If branch returned %d values for %d outputs"
                (Array.length bi.bi_rets) (Array.length inst.i_out);
            for k = 0 to Array.length inst.i_out - 1 do
              bind rs scope inst.i_out.(k) (get rs bi.bi_rets.(k))
            done;
            consume_all rs inst.i_in
          end
          else begin
            let rets = exec_block rs bi in
            if List.length rets <> Array.length inst.i_out then
              error "prim::If branch returned %d values for %d outputs"
                (List.length rets) (Array.length inst.i_out);
            List.iteri (fun k ret -> bind rs scope inst.i_out.(k) ret) rets;
            List.iter (unretain rs) rets;
            consume_all rs inst.i_in
          end
      | _ -> error "malformed prim::If"
    end
  | Op.Loop -> exec_loop rs ~scope inst
  | _ -> begin
      match inst.i_gid with
      | gid when gid >= 0 && rs.live -> (
          match rs.p.p_groups.(gid) with
          | Some g -> if inst.i_last then launch_group rs scope gid g
          | None -> exec_plain_inst rs scope inst)
      | _ -> exec_plain_inst rs scope inst
    end

and exec_loop rs ~scope (inst : inst) =
  match inst.i_node.n_blocks with
  | [ body ] -> begin
      let trip = Value.to_int (get rs inst.i_in.(0)) in
      let inits =
        List.init
          (Array.length inst.i_in - 1)
          (fun k -> get rs inst.i_in.(k + 1))
      in
      let bi = block_insts rs body in
      if Array.length bi.bi_params = 0 then
        error "prim::Loop body without induction parameter";
      Array.iter (exec_plain_inst rs scope) bi.bi_pre;
      let lplan =
        if
          rs.live && rs.p.p_parallel && trip > 1 && trip >= rs.p.p_loop_grain
        then
          match Hashtbl.find_opt rs.p.p_lplans inst.i_node.n_id with
          | Some lp
            when Array.length bi.bi_params = Array.length lp.lp_roles + 1
                 && Array.length bi.bi_insts = Array.length lp.lp_actions
                 && Array.length inst.i_out = Array.length lp.lp_roles ->
              Some lp
          | _ -> None
        else None
      in
      match lplan with
      | Some lp ->
          let arm = lp.lp_tuner.Tuner.arm in
          let t0 = Unix.gettimeofday () in
          (match arm with
          | Seq -> exec_seq_loop rs ~scope inst bi trip inits
          | Vector | Inline | Dispatch ->
              let inits = Array.of_list inits in
              let bufs = carried_buffers rs lp inits in
              let merged =
                match (arm, lp.lp_vector) with
                | Vector, Some vp
                  when exec_vector_loop rs bi lp vp trip inits bufs ->
                    rs.p.s_vector_loops <- rs.p.s_vector_loops + 1;
                    Array.make (Array.length inits) None
                | _ ->
                    exec_batched_loop rs bi lp trip inits bufs
                      ~dispatch:(arm = Dispatch)
              in
              bind_loop_outputs rs ~scope inst lp inits bufs merged);
          Tuner.record lp.lp_tuner arm (Unix.gettimeofday () -. t0)
      | None -> exec_seq_loop rs ~scope inst bi trip inits
    end
  | _ -> error "malformed prim::Loop"

(* The classic sequential loop body: per-iteration scopes, kernel
   fusion and assign donation all active.  Also the [Seq] auto-tuner
   arm of batched loops: a workload whose batched arms lose
   to the fused sequential path pins this one. *)
and exec_seq_loop rs ~scope (inst : inst) (bi : binst) trip inits = begin
        (* Consume the loop's input edges up front: if the loop is the
           init's last consumer, iteration writes can donate into it. *)
        List.iter (retain rs) inits;
        consume_all rs inst.i_in;
        let carried = ref inits in
        for i = 0 to trip - 1 do
          let scope' = ref [] in
          bind rs scope' bi.bi_params.(0) (Value.Int i);
          (match !carried with
          | [] -> ()
          | [ a ] ->
              bind rs scope' bi.bi_params.(1) a;
              unretain rs a
          | [ a; b ] ->
              bind rs scope' bi.bi_params.(1) a;
              bind rs scope' bi.bi_params.(2) b;
              unretain rs a;
              unretain rs b
          | l ->
              List.iteri (fun j v -> bind rs scope' bi.bi_params.(j + 1) v) l;
              List.iter (unretain rs) l);
          Array.iter (exec_inst rs ~scope:scope') bi.bi_insts;
          let rets =
            match bi.bi_rets with
            | [| a |] ->
                let v = get rs a in
                retain rs v;
                [ v ]
            | [| a; b |] ->
                let va = get rs a and vb = get rs b in
                retain rs va;
                retain rs vb;
                [ va; vb ]
            | arr ->
                let l = Array.to_list (Array.map (fun slot -> get rs slot) arr) in
                List.iter (retain rs) l;
                l
          in
          exit_scope rs scope';
          carried := rets
        done;
        if List.length !carried <> Array.length inst.i_out then
          error "prim::Loop carried arity mismatch";
        List.iteri (fun k v -> bind rs scope inst.i_out.(k) v) !carried;
        List.iter (unretain rs) !carried
      end

(* Shared carried buffers for Sliced slots.  When the loop is the
   init's only use (decided at prepare time) and nothing else references
   its storage, the init is adopted in place (same rule as assign
   donation); otherwise one pooled clone covers the whole loop. *)
and carried_buffers rs (lp : lplan) inits =
  Array.mapi
    (fun j role ->
      match role with
      | Loop_par.Sliced ->
          let bt = Value.to_tensor inits.(j) in
          if rs.live && lp.lp_donate.(j) && sref_count rs bt = 1 then begin
            rs.p.s_donations <- rs.p.s_donations + 1;
            Metrics.incr donations_c;
            Some bt
          end
          else Some (Fastops.clone ~alloc:rs.alloc bt)
      | Loop_par.Reduced _ | Loop_par.Passthrough -> None)
    lp.lp_roles

(* Horizontal parallelization (Algorithm 2), iteration-batched: the
   dependence analysis guarantees every carried tensor is either written
   through induction-disjoint slices (Sliced), folded by an associative
   combine (Reduced), or passed through untouched, so iterations execute
   on shared buffers with one in-place leaf write per recognized rebuild
   chain — no per-iteration scopes, refcounts, or buffer rotation.
   Bodies run the action table compiled at prepare time on a private
   frame per pool chunk.  Returns the merged reduction results. *)
and exec_batched_loop rs (bi : binst) (lp : lplan) trip inits bufs ~dispatch =
  let nc = Array.length lp.lp_roles in
  let i_slot = bi.bi_params.(0) in
  let carried_slots = Array.sub bi.bi_params 1 nc in
  let buf j =
    match bufs.(j) with
    | Some t -> t
    | None -> error "batched loop: carried slot %d has no buffer" j
  in
  (* Reductions use fixed chunking (see [reduce_max_chunks]); parallel
     loops chunk per iteration — their writes are disjoint, so any
     partition is bitwise-identical to the sequential order. *)
  let csize =
    if lp.lp_reduction then
      max 1 ((trip + reduce_max_chunks - 1) / reduce_max_chunks)
    else 1
  in
  let nchunks = (trip + csize - 1) / csize in
  let partials =
    if lp.lp_reduction then Array.init nchunks (fun _ -> Array.make nc None)
    else [||]
  in
  let no_cell = Array.make (max nc 1) None in
  (* Inline runs draw iteration scratch from the storage pool and hand it
     back when the iteration ends: nothing an iteration allocates outlives
     it ([L_write] copies into the shared buffer, reduction partials are
     fresh allocations).  Dispatched chunks allocate fresh — the pool's
     free lists are single-domain. *)
  let scratch = ref [] in
  let pooled shape =
    let t = Buffer_plan.alloc rs.p.p_pool shape in
    scratch := t :: !scratch;
    t
  in
  let alloc = if dispatch then None else Some pooled in
  let run_iters (vals : Value.t option array) (cell : Value.t option array) lo
      hi =
    let getv slot =
      match vals.(slot) with
      | Some x -> x
      | None -> error "unbound value (frame slot %d)" slot
    in
    for i = lo to hi - 1 do
      vals.(i_slot) <- Some (Value.Int i);
      Array.iteri
        (fun j slot ->
          match lp.lp_roles.(j) with
          | Loop_par.Sliced -> vals.(slot) <- Some (Value.Tensor (buf j))
          | Loop_par.Passthrough -> vals.(slot) <- Some inits.(j)
          | Loop_par.Reduced _ -> vals.(slot) <- cell.(j))
        carried_slots;
      Array.iteri
        (fun k (b : inst) ->
          match lp.lp_actions.(k) with
          | L_skip -> ()
          | L_view kind ->
              let base = Value.to_tensor (getv b.i_in.(0)) in
              let operands =
                List.init (Array.length b.i_in - 1) (fun o ->
                    getv b.i_in.(o + 1))
              in
              vals.(b.i_out.(0)) <-
                Some (Value.Tensor (Eval.apply_view_kind kind base operands))
          | L_assign kind ->
              let bt = Value.to_tensor (getv b.i_in.(0)) in
              let src = Value.to_tensor (getv b.i_in.(1)) in
              let operands =
                List.init (Array.length b.i_in - 2) (fun o ->
                    getv b.i_in.(o + 2))
              in
              let fresh = Fastops.clone ?alloc bt in
              write_region (Eval.apply_view_kind kind fresh operands) src;
              vals.(b.i_out.(0)) <- Some (Value.Tensor fresh)
          | L_write w ->
              let region = ref (buf w.wr_buf) in
              Array.iter
                (fun (kind, ops) ->
                  let operands =
                    List.init (Array.length ops) (fun o -> getv ops.(o))
                  in
                  region := Eval.apply_view_kind kind !region operands)
                w.wr_steps;
              let leaf_ops =
                List.init (Array.length w.wr_leaf_ops) (fun o ->
                    getv w.wr_leaf_ops.(o))
              in
              let leaf =
                Eval.apply_view_kind w.wr_leaf_kind !region leaf_ops
              in
              write_region leaf (Value.to_tensor (getv w.wr_src));
              vals.(w.wr_out) <- Some (Value.Tensor (buf w.wr_buf))
          | L_reduce r -> (
              let x = getv b.i_in.(1 - r.rd_acc_pos) in
              match cell.(r.rd_slot) with
              | None ->
                  (* First iteration of the chunk: the partial starts as
                     a private copy (x may view a shared buffer that a
                     later iteration mutates). *)
                  let v =
                    match x with
                    | Value.Tensor t -> Value.Tensor (Fastops.clone t)
                    | v -> v
                  in
                  cell.(r.rd_slot) <- Some v;
                  vals.(b.i_out.(0)) <- Some v
              | Some acc -> (
                  let inputs =
                    if r.rd_acc_pos = 0 then [ acc; x ] else [ x; acc ]
                  in
                  match Fastops.apply_op b.i_node inputs with
                  | [ out ] ->
                      cell.(r.rd_slot) <- Some out;
                      vals.(b.i_out.(0)) <- Some out
                  | _ -> error "malformed reduction combine"))
          | L_plain ->
              let inputs =
                List.init (Array.length b.i_in) (fun o -> getv b.i_in.(o))
              in
              let outs = Fastops.apply_op ?alloc b.i_node inputs in
              List.iteri (fun o out -> vals.(b.i_out.(o)) <- Some out) outs)
        bi.bi_insts;
      if not dispatch then begin
        List.iter (Buffer_plan.release rs.p.p_pool) !scratch;
        scratch := []
      end
    done
  in
  let body lo hi =
    (* Private frame per pool chunk: iterations rebind everything they
       define; outer bindings are only ever read. *)
    let vals = Array.copy rs.vals in
    if lp.lp_reduction then
      for c = lo to hi - 1 do
        run_iters vals partials.(c) (c * csize) (min trip ((c + 1) * csize))
      done
    else run_iters vals no_cell lo hi
  in
  if dispatch then begin
    (* Cost hint for the pool's cache-aware chunking: each chunk walks
       its slice of every carried buffer about once, so per-chunk bytes
       are the carried footprint spread over the chunk count. *)
    let carried_bytes =
      Array.fold_left
        (fun acc v ->
          match v with
          | Value.Tensor t -> acc + (8 * Tensor.numel t)
          | _ -> acc)
        0 inits
    in
    ignore
      (Pool.parallel_for rs.p.p_exec_pool
         ~bytes_per_iter:(carried_bytes / max 1 nchunks)
         ~grain:1 ~n:nchunks body)
  end
  else body 0 nchunks;
  (* Merge reduction partials in fixed chunk order, folding from the
     loop's init exactly once. *)
  Array.mapi
    (fun j role ->
      match role with
      | Loop_par.Reduced { acc_pos; combine; _ } ->
          let acc = ref inits.(j) in
          Array.iter
            (fun cell ->
              match cell.(j) with
              | None -> ()
              | Some partial -> (
                  let inputs =
                    if acc_pos = 0 then [ !acc; partial ]
                    else [ partial; !acc ]
                  in
                  match Fastops.apply_op combine inputs with
                  | [ out ] -> acc := out
                  | _ -> error "malformed reduction combine"))
            partials;
          Some !acc
      | Loop_par.Sliced | Loop_par.Passthrough -> None)
    lp.lp_roles

and bind_loop_outputs rs ~scope (inst : inst) (lp : lplan) inits bufs merged =
  rs.p.s_parallel_loops <- rs.p.s_parallel_loops + 1;
  Metrics.incr parallel_loops_c;
  if lp.lp_reduction then begin
    rs.p.s_reduction_loops <- rs.p.s_reduction_loops + 1;
    Metrics.incr reduction_loops_c
  end;
  Array.iteri
    (fun j out_slot ->
      let v =
        match (lp.lp_roles.(j), bufs.(j), merged.(j)) with
        | Loop_par.Sliced, Some t, _ -> Value.Tensor t
        | Loop_par.Passthrough, _, _ -> inits.(j)
        | Loop_par.Reduced _, _, Some v -> v
        | _ -> error "batched loop: carried slot %d has no result" j
      in
      bind rs scope out_slot v)
    inst.i_out;
  consume_all rs inst.i_in

(* The vectorised arm ({!vplan}).  Pass 1 runs the iteration-invariant
   actions once; then every induction select and every write region is
   built, which bounds-checks the trip before anything is written (a
   trip past an extent returns [false]: the caller runs the inline arm,
   which fails where the sequential loop would); pass 2 runs the
   iteration-dependent actions in body order.  Reordering invariants
   ahead of writes is sound: {!Loop_par} only lets a carried slot be
   read through the iteration's own induction select, so no invariant
   reads data a write changes.  Scratch comes from the storage pool and
   goes back at the end — writes copy into the shared buffers. *)
and exec_vector_loop rs (bi : binst) (lp : lplan) (vp : vplan) trip inits
    bufs =
  let exception Bail in
  let vals = Array.copy rs.vals in
  let getv slot =
    match vals.(slot) with
    | Some x -> x
    | None -> error "unbound value (frame slot %d)" slot
  in
  let operands (b : inst) from =
    List.init (Array.length b.i_in - from) (fun o -> getv b.i_in.(o + from))
  in
  let tensor slot = Value.to_tensor (getv slot) in
  let is_vec slot = Hashtbl.mem vp.vp_vec slot in
  let buf j = match bufs.(j) with Some t -> t | None -> raise Bail in
  let scratch = ref [] in
  let pooled shape =
    let t = Buffer_plan.alloc rs.p.p_pool shape in
    scratch := t :: !scratch;
    t
  in
  let release () = List.iter (Buffer_plan.release rs.p.p_pool) !scratch in
  let axis (base : Tensor.t) dim =
    let nd = Tensor.ndim base in
    let d = if dim < 0 then dim + nd else dim in
    if d < 0 || d >= nd || trip > base.Tensor.shape.(d) then raise Bail;
    Tensor.permute
      (Tensor.narrow base ~dim:d ~start:0 ~len:trip)
      (Array.init nd (fun k -> if k = 0 then d else if k <= d then k - 1 else k))
  in
  let region (w : lwrite) =
    let r = ref (buf w.wr_buf) and is_vec = ref false in
    let step (kind, ops) =
      match kind with
      | Op.Select { dim } when ops = [| bi.bi_params.(0) |] ->
          r := axis !r dim;
          is_vec := true
      | _ ->
          let ops = List.map getv (Array.to_list ops) in
          r :=
            if !is_vec then vector_view kind !r ops
            else Eval.apply_view_kind kind !r ops
    in
    Array.iter step w.wr_steps;
    step (w.wr_leaf_kind, w.wr_leaf_ops);
    !r
  in
  let n = Array.length bi.bi_insts in
  let regions = Array.make n None in
  match
    Array.iteri
      (fun j slot ->
        match lp.lp_roles.(j) with
        | Loop_par.Sliced -> vals.(slot) <- Some (Value.Tensor (buf j))
        | Loop_par.Passthrough -> vals.(slot) <- Some inits.(j)
        | Loop_par.Reduced _ -> raise Bail)
      (Array.sub bi.bi_params 1 (Array.length lp.lp_roles));
    Array.iteri
      (fun k (b : inst) ->
        match (vp.vp_acts.(k), lp.lp_actions.(k)) with
        | V_once, L_view kind ->
            vals.(b.i_out.(0)) <-
              Some
                (Value.Tensor
                   (Eval.apply_view_kind kind (tensor b.i_in.(0)) (operands b 1)))
        | V_once, _ ->
            List.iteri
              (fun o out -> vals.(b.i_out.(o)) <- Some out)
              (Fastops.apply_op ~alloc:pooled b.i_node (operands b 0))
        | V_write, L_write w ->
            vals.(w.wr_out) <- Some (Value.Tensor (buf w.wr_buf))
        | _ -> ())
      bi.bi_insts;
    Array.iteri
      (fun k (b : inst) ->
        match (vp.vp_acts.(k), lp.lp_actions.(k)) with
        | V_axis dim, _ -> ignore (axis (tensor b.i_in.(0)) dim)
        | V_write, L_write w -> regions.(k) <- Some (region w)
        | _ -> ())
      bi.bi_insts
  with
  | exception (Bail | Invalid_argument _ | Eval.Runtime_error _) ->
      release ();
      false
  | () ->
      let region_at k =
        match regions.(k) with
        | Some r -> r
        | None -> error "vector loop: write %d has no region" k
      in
      let written = Array.make n false in
      let engine_op (b : inst) w =
        (* operands rank-aligned to the op's per-iteration rank *)
        let ins = Array.map (fun s -> (tensor s, is_vec s)) b.i_in in
        let rank =
          Array.fold_left
            (fun acc (t, v) -> max acc (Tensor.ndim t - Bool.to_int v))
            0 ins
        in
        let ts = Array.map (fun (t, v) -> if v then align t rank else t) ins in
        let shape =
          Array.fold_left (fun acc t -> Shape.broadcast acc (Tensor.shape t)) [||] ts
        in
        let into =
          if w < 0 then None
          else
            let reg = region_at w in
            if
              Shape.equal (Tensor.shape reg) shape
              && Array.for_all
                   (fun t -> (not (Tensor.same_storage t reg)) || same_view t reg)
                   ts
            then begin
              written.(w) <- true;
              Some reg
            end
            else None
        in
        let dst = match into with Some reg -> reg | None -> pooled shape in
        (match (b.i_node.n_op, ts) with
        | Op.Unary fn, [| a |] -> Fastops.unary_into dst fn a
        | Op.Binary fn, [| a; c |] -> Fastops.binary_into dst fn a c
        | Op.Where, [| c; a; e |] -> Fastops.where_into dst c a e
        | Op.Clone, [| a |] -> Fastops.copy_into dst a
        | _ -> error "vector loop: %s is no engine op" (Op.name b.i_node.n_op));
        dst
      in
      let write k (w : lwrite) =
        let reg = region_at k in
        let src = tensor w.wr_src and v = is_vec w.wr_src in
        let rank = Tensor.ndim reg - 1 in
        if Tensor.ndim src - Bool.to_int v <= rank then
          Fastops.copy_into reg (if v then align src rank else src)
        else
          (* rank-dropping one-element writes: per iteration, as the
             sequential loop does *)
          for i = 0 to trip - 1 do
            write_region
              (Tensor.select reg ~dim:0 i)
              (if v then Tensor.select src ~dim:0 i else src)
          done
      in
      let set (b : inst) t = vals.(b.i_out.(0)) <- Some (Value.Tensor t) in
      Array.iteri
        (fun k (b : inst) ->
          match (vp.vp_acts.(k), lp.lp_actions.(k)) with
          | V_axis dim, _ -> set b (axis (tensor b.i_in.(0)) dim)
          | V_view kind, _ ->
              set b (vector_view kind (tensor b.i_in.(0)) (operands b 1))
          | V_op w, _ -> set b (engine_op b w)
          | V_write, L_write w when not written.(k) -> write k w
          | _ -> ())
        bi.bi_insts;
      release ();
      true

(* --- preparation --- *)

(* The vectorised plan of a Parallel loop body, or [None] when the body
   does not qualify: the induction variable [i] appears only as the
   index of a [select] (of an invariant base) or of one select on each
   write path; every iteration-dependent value comes from
   select/slice/identity views or engine ops; there is no copy-producing
   assign, and no iteration-dependent value is returned.  An engine op
   whose only consumer is the next write computes straight into that
   write's region ([V_op w]) when nothing but views runs in between. *)
let vector_plan (bi : binst) (actions : laction array) =
  let exception Reject in
  let i_slot = bi.bi_params.(0) in
  let dep = Hashtbl.create 16 in
  let is_dep s = Hashtbl.mem dep s in
  let no_i s = if s = i_slot then raise Reject in
  let mark (b : inst) = Array.iter (fun s -> Hashtbl.replace dep s ()) b.i_out in
  try
    let va =
      Array.mapi
        (fun k (b : inst) ->
          match actions.(k) with
          | L_skip -> V_skip
          | L_assign _ | L_reduce _ -> raise Reject
          | L_write w ->
              let selects = ref 0 in
              let check (kind, ops) =
                Array.iter
                  (fun s ->
                    if s = i_slot then
                      match kind with
                      | Op.Select _ when Array.length ops = 1 -> incr selects
                      | _ -> raise Reject
                    else if is_dep s then raise Reject)
                  ops
              in
              Array.iter check w.wr_steps;
              check (w.wr_leaf_kind, w.wr_leaf_ops);
              if !selects <> 1 then raise Reject;
              no_i w.wr_src;
              V_write
          | L_view kind -> (
              let base = b.i_in.(0) in
              let ops = Array.sub b.i_in 1 (Array.length b.i_in - 1) in
              no_i base;
              if Array.mem i_slot ops then
                match kind with
                | Op.Select { dim } when not (is_dep base) ->
                    mark b;
                    V_axis dim
                | _ -> raise Reject
              else if Array.exists is_dep ops then raise Reject
              else if not (is_dep base) then V_once
              else
                match kind with
                | Op.Select _ | Op.Slice _ | Op.Identity ->
                    mark b;
                    V_view kind
                | _ -> raise Reject)
          | L_plain ->
              Array.iter no_i b.i_in;
              if not (Array.exists is_dep b.i_in) then V_once
              else begin
                match b.i_node.n_op with
                | (Op.Unary _ | Op.Binary _ | Op.Where | Op.Clone)
                  when Array.length b.i_out = 1 ->
                    mark b;
                    V_op (-1)
                | _ -> raise Reject
              end)
        bi.bi_insts
    in
    Array.iter
      (fun s ->
        no_i s;
        if is_dep s then raise Reject)
      bi.bi_rets;
    (* destination passing *)
    let views_only lo hi =
      let ok = ref true in
      for k = lo to hi do
        match va.(k) with
        | V_op _ | V_write -> ok := false
        | V_once | V_skip | V_axis _ | V_view _ -> ()
      done;
      !ok
    in
    Array.iteri
      (fun k act ->
        match act with
        | V_op _ -> (
            let o = bi.bi_insts.(k).i_out.(0) in
            let writes = ref [] and others = ref false in
            Array.iteri
              (fun k' (b : inst) ->
                (match actions.(k') with
                | L_write w when w.wr_src = o -> writes := k' :: !writes
                | _ -> ());
                if Array.mem o b.i_in then
                  match actions.(k') with
                  | L_skip | L_write _ -> ()
                  | _ -> others := true)
              bi.bi_insts;
            match !writes with
            | [ w ]
              when w > k && (not !others)
                   && (not (Array.mem o bi.bi_rets))
                   && views_only (k + 1) (w - 1) ->
                va.(k) <- V_op w
            | _ -> ())
        | _ -> ())
      va;
    Some { vp_acts = va; vp_vec = dep }
  with Reject -> None

let prepare ~parallel ~pool:exec_pool ~loop_grain ~kernel_grain ~graph
    ~shapes ~plan =
  Metrics.incr prepares_c;
  Tracer.span_args "scheduler.prepare"
    ~args:(fun () -> [ ("graph", graph.Graph.g_name) ])
  @@ fun () ->
  let slot_tbl : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let nslots = ref 0 in
  let slot_of_value (v : Graph.value) =
    match Hashtbl.find_opt slot_tbl v.Graph.v_id with
    | Some s -> s
    | None ->
        let s = !nslots in
        incr nslots;
        Hashtbl.replace slot_tbl v.Graph.v_id s;
        s
  in
  let blocks = Hashtbl.create 16 in
  (* Groups containing an [immut::assign] run in place inside loops: a
     kernel must materialize a fresh output every iteration, while the
     per-node path donates the region write into the carried buffer —
     O(region) against O(whole tensor) per iteration. *)
  let assign_gids = Hashtbl.create 8 in
  Graph.iter_nodes graph (fun n ->
      match (n.n_op, Fusion.kernel_class_of plan n) with
      | Op.Assign _, Fusion.Kernel gid -> Hashtbl.replace assign_gids gid ()
      | _ -> ());
  let members : (int, inst list) Hashtbl.t = Hashtbl.create 16 in
  let consts = ref [] in
  let pinned_extra = ref [] in
  let rec walk_block ~under_loop (b : Graph.block) =
    let params = Array.of_list (List.map slot_of_value b.Graph.b_params) in
    let insts =
      List.filter_map
        (fun (n : Graph.node) ->
          let i_in = Array.of_list (List.map slot_of_value n.n_inputs) in
          let i_out = Array.of_list (List.map slot_of_value n.n_outputs) in
          let under_loop' = under_loop || n.n_op = Op.Loop in
          List.iter (walk_block ~under_loop:under_loop') n.n_blocks;
          match n.n_op with
          | Op.Constant _ ->
              (* Pure and input-free: bound once per run, not per
                 iteration of whatever block contains it. *)
              consts :=
                { i_node = n; i_in; i_out; i_gid = -1; i_last = false }
                :: !consts;
              Array.iter (fun s -> pinned_extra := s :: !pinned_extra) i_out;
              None
          | _ -> (
              (match (n.n_op, n.n_blocks) with
              | Op.Loop, [ body ] -> hoist_invariants body
              | _ -> ());
              match Fusion.kernel_class_of plan n with
              | Fusion.Kernel gid
                when not (under_loop && Hashtbl.mem assign_gids gid) ->
                  (* Assign-free groups under a loop register too: a
                     native kernel is compiled once at prepare time and
                     relaunched every iteration; the auto-tuner demotes
                     it if per-node execution beats it. *)
                  let inst =
                    { i_node = n; i_in; i_out; i_gid = gid; i_last = false }
                  in
                  let existing =
                    Option.value (Hashtbl.find_opt members gid) ~default:[]
                  in
                  Hashtbl.replace members gid (existing @ [ inst ]);
                  Some inst
              | Fusion.Kernel _ | Fusion.No_cost ->
                  Some
                    { i_node = n; i_in; i_out; i_gid = -1; i_last = false }))
        b.Graph.b_nodes
    in
    Hashtbl.replace blocks b.Graph.b_id
      {
        bi_insts = Array.of_list insts;
        bi_params = params;
        bi_rets = Array.of_list (List.map slot_of_value b.Graph.b_returns);
        bi_pre = [||];
      }
  (* An access whose operands all come from outside a loop body reads the
     same region every iteration — run it once before the loop.  Views are
     free to hold and their slots are pinned, so hoisting can only block a
     donation the plan would not have made anyway. *)
  and hoist_invariants (body : Graph.block) =
    let bi = Hashtbl.find blocks body.Graph.b_id in
    let defined = Hashtbl.create 32 in
    Array.iter (fun s -> Hashtbl.replace defined s ()) bi.bi_params;
    Array.iter
      (fun (b : inst) ->
        Array.iter (fun s -> Hashtbl.replace defined s ()) b.i_out)
      bi.bi_insts;
    let hoisted = Hashtbl.create 8 in
    let pre = ref [] and rest = ref [] in
    Array.iter
      (fun (b : inst) ->
        let invariant =
          (match b.i_node.n_op with Op.Access _ -> true | _ -> false)
          (* Group members stay put: hoisting one would desynchronize the
             group's first/last-member bookkeeping with execution. *)
          && b.i_gid = -1
          && Array.for_all
               (fun s -> (not (Hashtbl.mem defined s)) || Hashtbl.mem hoisted s)
               b.i_in
        in
        if invariant then begin
          Array.iter
            (fun s ->
              Hashtbl.replace hoisted s ();
              pinned_extra := s :: !pinned_extra)
            b.i_out;
          pre := b :: !pre
        end
        else rest := b :: !rest)
      bi.bi_insts;
    if !pre <> [] then
      Hashtbl.replace blocks body.Graph.b_id
        {
          bi with
          bi_insts = Array.of_list (List.rev !rest);
          bi_pre = Array.of_list (List.rev !pre);
        }
  in
  List.iter (fun v -> ignore (slot_of_value v)) (Graph.params graph);
  walk_block ~under_loop:false graph.Graph.g_block;
  (* Iteration-batching plans for loops the dependence analysis cleared:
     every slice descriptor (view kinds, operand slots, buffer indices)
     is resolved to frame slots once, here, never per run or per
     iteration.  A loop whose plan cannot be built (a missing slot, a
     malformed chain) simply stays sequential. *)
  let lplans : (int, lplan) Hashtbl.t = Hashtbl.create 4 in
  let build_lplan (node : Graph.node) (info : Loop_par.info) (body : Graph.block) =
    match Hashtbl.find_opt blocks body.Graph.b_id with
    | None -> None
    | Some bi
      when Array.length bi.bi_params <> Array.length info.Loop_par.roles + 1
      ->
        None
    | Some bi -> (
        let exception Bail in
        let req (v : Graph.value) =
          match Hashtbl.find_opt slot_tbl v.Graph.v_id with
          | Some s -> s
          | None -> raise Bail
        in
        let step_of (s : Loop_par.step) =
          (s.Loop_par.st_kind, Array.of_list (List.map req s.Loop_par.st_ops))
        in
        let combines = Hashtbl.create 4 in
        Array.iteri
          (fun j role ->
            match role with
            | Loop_par.Reduced { acc_pos; combine; _ } ->
                Hashtbl.replace combines combine.Graph.n_id (j, acc_pos)
            | Loop_par.Sliced | Loop_par.Passthrough -> ())
          info.Loop_par.roles;
        try
          let actions =
            Array.map
              (fun (b : inst) ->
                let nid = b.i_node.n_id in
                if Hashtbl.mem info.Loop_par.skips nid then L_skip
                else
                  match Hashtbl.find_opt info.Loop_par.writes nid with
                  | Some w ->
                      if Array.length b.i_out <> 1 then raise Bail;
                      let lk, lops = step_of w.Loop_par.w_leaf in
                      L_write
                        {
                          wr_buf = w.Loop_par.w_slot;
                          wr_steps =
                            Array.of_list (List.map step_of w.Loop_par.w_steps);
                          wr_leaf_kind = lk;
                          wr_leaf_ops = lops;
                          wr_src = req w.Loop_par.w_src;
                          wr_out = b.i_out.(0);
                        }
                  | None -> (
                      match Hashtbl.find_opt combines nid with
                      | Some (j, acc_pos) ->
                          if
                            Array.length b.i_in <> 2
                            || Array.length b.i_out <> 1
                          then raise Bail;
                          L_reduce { rd_slot = j; rd_acc_pos = acc_pos }
                      | None -> (
                          match b.i_node.n_op with
                          | Op.Access kind
                            when Array.length b.i_in >= 1
                                 && Array.length b.i_out = 1 ->
                              L_view kind
                          | Op.Assign kind
                            when Array.length b.i_in >= 2
                                 && Array.length b.i_out = 1 ->
                              L_assign kind
                          | _ -> L_plain)))
              bi.bi_insts
          in
          let reduction =
            Array.exists
              (function Loop_par.Reduced _ -> true | _ -> false)
              info.Loop_par.roles
          in
          let vector = if reduction then None else vector_plan bi actions in
          let donate =
            Array.mapi
              (fun j _ ->
                let init = List.nth node.n_inputs (j + 1) in
                (match Graph.uses_in graph init with [ _ ] -> true | _ -> false)
                && (not (List.memq init (Graph.params graph)))
                && Graph.defining_block init == Graph.node_block node)
              info.Loop_par.roles
          in
          Some
            {
              lp_roles = info.Loop_par.roles;
              lp_donate = donate;
              lp_actions = actions;
              lp_vector = vector;
              lp_reduction = reduction;
              lp_ops = op_names body.Graph.b_nodes;
              lp_tuner =
                Tuner.create ~scope:"scheduler.loop" ~id:node.n_id
                  ~name:larm_name
                  ((if vector = None then [] else [ Vector ])
                  @ [ Inline ]
                  @ (if Pool.lanes exec_pool > 1 then [ Dispatch ] else [])
                  @ [ Seq ]);
            }
        with Bail -> None)
  in
  Graph.iter_nodes graph (fun (node : Graph.node) ->
      if node.n_op = Op.Loop then
        match (Fusion.loop_verdict plan node, node.n_blocks) with
        | (Loop_par.Parallel info | Loop_par.Reduction (_, info)), [ body ]
          -> (
            match build_lplan node info body with
            | Some lp -> Hashtbl.replace lplans node.n_id lp
            | None -> ())
        | _ -> ());
  let usage =
    Tracer.span "engine.buffer_plan" (fun () -> Buffer_plan.analyze graph)
  in
  let uses = Array.make !nslots 0 in
  let pinned = Array.make !nslots true in
  Hashtbl.iter
    (fun v_id (u : Buffer_plan.usage) ->
      match Hashtbl.find_opt slot_tbl v_id with
      | Some s ->
          uses.(s) <- u.Buffer_plan.u_uses;
          pinned.(s) <- u.Buffer_plan.u_pinned
      | None -> ())
    usage;
  List.iter (fun s -> pinned.(s) <- true) !pinned_extra;
  (* Fold the per-group tables into one dense dispatch array and stamp
     each group's last member as its launch point, so the executor's
     per-instruction dispatch is an array load instead of hashtable
     probes (see {!group}). *)
  let max_gid = Hashtbl.fold (fun gid _ acc -> max gid acc) members (-1) in
  let groups = Array.make (max_gid + 1) None in
  Hashtbl.iter
    (fun gid ms ->
      (List.nth ms (List.length ms - 1)).i_last <- true;
      (* [Cjit] starts dropped: {!arm} adds it once a native kernel
         exists for the group *)
      let tuner =
        Tuner.create ~scope:"scheduler.group" ~id:gid ~name:garm_name
          [ Cjit; Per_node ]
      in
      Tuner.drop tuner Cjit;
      groups.(gid) <- Some { g_members = ms; g_jit = None; g_tuner = tuner })
    members;
  let scalar_slots = Hashtbl.create 64 in
  let note_value (v : Graph.value) =
    match Hashtbl.find_opt slot_tbl v.Graph.v_id with
    | Some s -> Hashtbl.replace scalar_slots (Codegen.value_ref v) s
    | None -> ()
  in
  List.iter note_value (Graph.params graph);
  Graph.iter_nodes graph (fun node ->
      List.iter note_value node.n_outputs;
      List.iter
        (fun (b : Graph.block) -> List.iter note_value b.b_params)
        node.n_blocks);
  let has_mutation = ref false in
  Graph.iter_nodes graph (fun node ->
      match node.n_op with Op.Mutate _ -> has_mutation := true | _ -> ());
  {
    p_graph = graph;
    p_plan = plan;
    p_out_shapes =
      List.map (Shape_infer.shape_of shapes) (Graph.returns graph);
    p_nslots = !nslots;
    p_uses = uses;
    p_pinned = pinned;
    p_blocks = blocks;
    p_lplans = lplans;
    p_slot = slot_tbl;
    p_groups = groups;
    p_in_shapes = List.map (Shape_infer.shape_of shapes) (Graph.params graph);
    p_consts = Array.of_list (List.rev !consts);
    p_scalar_slots = scalar_slots;
    p_live = not !has_mutation;
    p_parallel = parallel;
    p_pool = Buffer_plan.create_pool ();
    p_exec_pool = exec_pool;
    p_loop_grain = max 1 loop_grain;
    p_kernel_grain = max 1 kernel_grain;
    s_cjit_runs = 0;
    s_jit_fallbacks = 0;
    s_donations = 0;
    s_parallel_loops = 0;
    s_reduction_loops = 0;
    s_vector_loops = 0;
  }

let output_shapes p = p.p_out_shapes

let arm p entries =
  List.fold_left
    (fun n (gid, entry) ->
      match if gid < Array.length p.p_groups then p.p_groups.(gid) else None with
      | Some g when g.g_jit = None ->
          g.g_jit <- Some entry;
          Tuner.add g.g_tuner Cjit;
          n + 1
      | Some _ | None -> n)
    0 entries

let run p args =
  Metrics.incr runs_c;
  incr run_epoch;
  Tracer.span_args "scheduler.run"
    ~args:(fun () -> [ ("graph", p.p_graph.Graph.g_name) ])
  @@ fun () ->
  (* Rebind the kernel-library chunker to this engine's pool for the whole
     invocation (a process-wide ref: a session shard on another domain
     may rebind it mid-run, which never changes a result; see Fastops). *)
  Fastops.set_parallel
    (if p.p_parallel then Some p.p_exec_pool else None)
    ~grain:p.p_kernel_grain;
  let rs =
    {
      vals = Array.make p.p_nslots None;
      remaining = Array.make p.p_nslots 0;
      epoch = !run_epoch;
      live = p.p_live;
      alloc =
        (if p.p_live then Buffer_plan.alloc p.p_pool else Tensor.zeros);
      p;
    }
  in
  let params = Graph.params p.p_graph in
  if List.length params <> List.length args then
    error "graph %s expects %d arguments, got %d" p.p_graph.g_name
      (List.length params) (List.length args);
  List.iteri
    (fun k -> function
      | Some s, Value.Tensor (t : Tensor.t)
        when not (Shape_infer.matches s t.Tensor.shape) ->
          error "graph %s argument %d has shape %s; the engine was prepared for %s"
            p.p_graph.g_name k
            (Shape_infer.to_string (Shape_infer.known t.Tensor.shape))
            (Shape_infer.to_string s)
      | _ -> ())
    (List.combine p.p_in_shapes args);
  List.iter
    (fun v ->
      iter_value_tensors v (fun (t : Tensor.t) ->
          Storage.set_mark t.Tensor.storage ~epoch:rs.epoch
            (Storage.mark t.Tensor.storage ~epoch:rs.epoch + foreign_bias)))
    args;
  Array.iter
    (fun (c : inst) ->
      List.iteri
        (fun k out -> rs.vals.(c.i_out.(k)) <- Some out)
        (Eval.apply_op c.i_node []))
    p.p_consts;
  let scope = ref [] in
  List.iter2
    (fun (v : Graph.value) arg ->
      bind rs scope (Hashtbl.find p.p_slot v.Graph.v_id) arg)
    params args;
  exec_block rs (Hashtbl.find p.p_blocks p.p_graph.g_block.b_id)

type stats = {
  groups : int;
  kernel_runs : int;
  pool_fresh : int;
  pool_reused : int;
  donations : int;
  parallel_loops_run : int;
  reduction_loops_run : int;
  batched_loops : int;  (* loops with an iteration-batching plan *)
  vector_loops : int;  (* batched loop executions on the vector arm *)
  cjit_groups : int;  (* groups armed with a native kernel *)
  cjit_runs : int;  (* native launches *)
  jit_fallbacks : int;  (* launch-validation demotions to per-node *)
  loops_pinned_vector : int;
  loops_pinned_inline : int;
  loops_pinned_dispatch : int;
  loops_pinned_seq : int;  (* batched loops pinned back to sequential *)
  pool_lanes : int;
}

let stats p =
  let pin_v = ref 0 and pin_i = ref 0 and pin_d = ref 0 and pin_s = ref 0 in
  Hashtbl.iter
    (fun _ (lp : lplan) ->
      match Tuner.pinned lp.lp_tuner with
      | Some Vector -> incr pin_v
      | Some Inline -> incr pin_i
      | Some Dispatch -> incr pin_d
      | Some Seq -> incr pin_s
      | None -> ())
    p.p_lplans;
  let count f =
    Array.fold_left
      (fun acc g -> match g with Some g when f g -> acc + 1 | _ -> acc)
      0 p.p_groups
  in
  {
    groups = List.length (Fusion.group_sizes p.p_plan);
    kernel_runs = p.s_cjit_runs;
    pool_fresh = Buffer_plan.fresh_allocs p.p_pool;
    pool_reused = Buffer_plan.reuses p.p_pool;
    donations = p.s_donations;
    parallel_loops_run = p.s_parallel_loops;
    reduction_loops_run = p.s_reduction_loops;
    batched_loops = Hashtbl.length p.p_lplans;
    vector_loops = p.s_vector_loops;
    cjit_groups = count (fun g -> g.g_jit <> None);
    cjit_runs = p.s_cjit_runs;
    jit_fallbacks = p.s_jit_fallbacks;
    loops_pinned_vector = !pin_v;
    loops_pinned_inline = !pin_i;
    loops_pinned_dispatch = !pin_d;
    loops_pinned_seq = !pin_s;
    pool_lanes = Pool.lanes p.p_exec_pool;
  }

(* --- kernel-group wall-time attribution ---

   Every group/loop launch is already timed for the auto-tuner, so the
   accumulated per-site cost is collected as a side effect of normal
   dispatch.  Rows are sorted by time, hottest first. *)

type attribution_row = {
  at_id : int;  (* gid, or the loop node's id *)
  at_kind : [ `Group | `Loop ];
  at_arm : string;  (* current arm, or "sampling" *)
  at_members : int;  (* member instructions (groups) or trip sites (loops) *)
  at_ops : string list;  (* member (groups) or body (loops) op names *)
  at_time_s : float;  (* accumulated launch wall time *)
  at_launches : int;
}

let attribution p =
  let rows = ref [] in
  Array.iteri
    (fun gid -> function
      | Some g when Tuner.launches g.g_tuner > 0 ->
          rows :=
            {
              at_id = gid;
              at_kind = `Group;
              at_arm = Tuner.label g.g_tuner;
              at_members = List.length g.g_members;
              at_ops = op_names (List.map (fun i -> i.i_node) g.g_members);
              at_time_s = Tuner.total g.g_tuner;
              at_launches = Tuner.launches g.g_tuner;
            }
            :: !rows
      | _ -> ())
    p.p_groups;
  Hashtbl.iter
    (fun lid (lp : lplan) ->
      if Tuner.launches lp.lp_tuner > 0 then
        rows :=
          {
            at_id = lid;
            at_kind = `Loop;
            at_arm = Tuner.label lp.lp_tuner;
            at_members = Array.length lp.lp_actions;
            at_ops = lp.lp_ops;
            at_time_s = Tuner.total lp.lp_tuner;
            at_launches = Tuner.launches lp.lp_tuner;
          }
          :: !rows)
    p.p_lplans;
  List.sort (fun a b -> Float.compare b.at_time_s a.at_time_s) !rows

let clear_buffers p = Buffer_plan.clear p.p_pool
