open Functs_ir
open Functs_tensor
open Functs_core
open Functs_interp
open Frame

(* --- iteration batching for Parallel loops ---

   For every loop the dependence analysis clears as [Parallel]
   ({!Loop_par}), the body is compiled at prepare time into an action
   table aligned with its instruction array: in-place writes replay a
   recognized rebuild chain as one leaf write on the shared carried
   buffer, everything else runs as zero-copy views or plain fast-ops on
   a private frame.  Nothing is resolved per run or per iteration — the
   slice descriptors (operand slots, view kinds, buffer indices) are
   fixed here. *)
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

type t = {
  lp_sliced : bool array;
      (* per carried slot: [Sliced] (a shared buffer written in place),
         else [Passthrough] (the init, unchanged) *)
  lp_donate : bool array;
      (* per carried slot: the loop is the init's only use, in the same
         block, and the init is no graph parameter — so a run may adopt
         the init as the shared buffer when its storage has no other
         live reference *)
  lp_actions : laction array;  (* aligned with the body's bi_insts *)
}

(* Carried slot [j] of [node] may adopt its init as the written buffer:
   the loop is the init's only use, in the same block, and the init is
   no graph parameter. *)
let donatable graph (node : Graph.node) j =
  let init = List.nth node.Graph.n_inputs (j + 1) in
  (match Graph.uses_in graph init with [ _ ] -> true | _ -> false)
  && (not (List.memq init (Graph.params graph)))
  && Graph.defining_block init == Graph.node_block node

(* Adopt [bt] as the buffer a loop writes in place when the prepare-time
   rule allows it and nothing else references its storage now (the rule
   assign donation applies); otherwise one pooled clone. *)
let adopt_or_clone rs ~donate (bt : Tensor.t) =
  if rs.live && donate && sref_count rs bt = 1 then begin
    note_donation rs;
    bt
  end
  else Fastops.clone ~alloc:rs.alloc ?par:rs.par bt

(* Every slice descriptor (view kinds, operand slots, buffer indices) is
   resolved to frame slots once, here, never per run or per iteration.
   A loop whose plan cannot be built (a missing slot, a malformed chain,
   a [Reduced] slot) gets [None] and stays sequential. *)
let build graph ~slot (node : Graph.node) (info : Loop_par.info) (bi : binst) =
  let roles = info.Loop_par.roles in
  if
    Array.length bi.bi_params <> Array.length roles + 1
    || Array.exists (function Loop_par.Reduced _ -> true | _ -> false) roles
  then None
  else
    let exception Bail in
    let req (v : Graph.value) =
      match slot v with Some s -> s | None -> raise Bail
    in
    let step_of (s : Loop_par.step) =
      (s.Loop_par.st_kind, Array.of_list (List.map req s.Loop_par.st_ops))
    in
    let action (b : inst) =
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
                wr_steps = Array.of_list (List.map step_of w.Loop_par.w_steps);
                wr_leaf_kind = lk;
                wr_leaf_ops = lops;
                wr_src = req w.Loop_par.w_src;
                wr_out = b.i_out.(0);
              }
        | None -> (
            match b.i_node.n_op with
            | Op.Access kind
              when Array.length b.i_in >= 1 && Array.length b.i_out = 1 ->
                L_view kind
            | Op.Assign kind
              when Array.length b.i_in >= 2 && Array.length b.i_out = 1 ->
                L_assign kind
            | _ -> L_plain)
    in
    match Array.map action bi.bi_insts with
    | exception Bail -> None
    | actions ->
        Some
          {
            lp_sliced =
              Array.map
                (function Loop_par.Sliced -> true | _ -> false)
                roles;
            lp_donate = Array.mapi (fun j _ -> donatable graph node j) roles;
            lp_actions = actions;
          }

(* Shared carried buffers for Sliced slots.  When the loop is the
   init's only use (decided at prepare time) and nothing else references
   its storage, the init is adopted in place (same rule as assign
   donation); otherwise one pooled clone covers the whole loop. *)
let carried_buffers rs lp inits =
  Array.mapi
    (fun j sliced ->
      if sliced then
        Some
          (adopt_or_clone rs ~donate:lp.lp_donate.(j)
             (Value.to_tensor inits.(j)))
      else None)
    lp.lp_sliced

(* Horizontal parallelization (Algorithm 2), iteration-batched: the
   dependence analysis guarantees every carried tensor is either written
   through induction-disjoint slices (Sliced) or passed through
   untouched, so iterations execute on shared buffers with one in-place
   leaf write per recognized rebuild chain — no per-iteration scopes,
   refcounts, or buffer rotation.  Each iteration is one chunk: its
   writes are disjoint from every other's, so any partition is
   bitwise-identical to the sequential order.  Bodies run the action
   table on a private frame per chunk, and the engine's parallel-for
   decides whether the chunks fan out across lanes or all run on the
   caller; their kernels, issued while it runs, run sequentially. *)
let exec rs (bi : binst) lp trip inits bufs =
  let par = rs.par in
  let i_slot = bi.bi_params.(0) in
  let carried_slots = Array.sub bi.bi_params 1 (Array.length lp.lp_sliced) in
  let buf j =
    match bufs.(j) with
    | Some t -> t
    | None -> error "batched loop: carried slot %d has no buffer" j
  in
  let caller = Domain.self () in
  (* Chunks on the run's own domain draw iteration scratch from the
     storage pool and hand it back when each iteration ends: nothing an
     iteration allocates outlives it ([L_write] copies into the shared
     buffer).  Chunks on worker domains allocate fresh — the pool's free
     lists are single-domain. *)
  let run_iters (vals : Value.t option array) lo hi =
    let scratch = ref [] in
    let alloc =
      if Domain.self () <> caller then None
      else
        Some
          (fun shape ->
            let t = Buffer_plan.alloc rs.pool shape in
            scratch := t :: !scratch;
            t)
    in
    let getv slot =
      match vals.(slot) with
      | Some x -> x
      | None -> error "unbound value (frame slot %d)" slot
    in
    for i = lo to hi - 1 do
      vals.(i_slot) <- Some (Value.Int i);
      Array.iteri
        (fun j slot ->
          vals.(slot) <-
            Some (if lp.lp_sliced.(j) then Value.Tensor (buf j) else inits.(j)))
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
              let fresh = Fastops.clone ?alloc ?par bt in
              write_region ?par (Eval.apply_view_kind kind fresh operands) src;
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
              let leaf = Eval.apply_view_kind w.wr_leaf_kind !region leaf_ops in
              write_region ?par leaf (Value.to_tensor (getv w.wr_src));
              vals.(w.wr_out) <- Some (Value.Tensor (buf w.wr_buf))
          | L_plain ->
              let inputs =
                List.init (Array.length b.i_in) (fun o -> getv b.i_in.(o))
              in
              let outs = Fastops.apply_op ?alloc ?par b.i_node inputs in
              List.iteri (fun o out -> vals.(b.i_out.(o)) <- Some out) outs)
        bi.bi_insts;
      List.iter (Buffer_plan.release rs.pool) !scratch;
      scratch := []
    done
  in
  (* Private frame per chunk: iterations rebind everything they define;
     outer bindings are only ever read. *)
  let body lo hi = run_iters (Array.copy rs.vals) lo hi in
  (* Cost hint for cache-aware chunking: each iteration walks its slice
     of every carried buffer about once, so per-iteration bytes are the
     carried footprint spread over the trip. *)
  let carried_bytes =
    Array.fold_left
      (fun acc v ->
        match v with Value.Tensor t -> acc + (8 * Tensor.numel t) | _ -> acc)
      0 inits
  in
  match par with
  | Some { par_for; _ } ->
      par_for ~bytes_per_iter:(carried_bytes / max 1 trip) ~grain:1 ~n:trip body
  | None -> body 0 trip

(* Bind a batched run's results to the loop's outputs: the shared
   buffers and the passed-through inits. *)
let bind_outputs rs ~scope (inst : inst) lp inits bufs =
  Array.iteri
    (fun j out_slot ->
      let v =
        match bufs.(j) with
        | Some t when lp.lp_sliced.(j) -> Value.Tensor t
        | _ -> inits.(j)
      in
      bind rs scope out_slot v)
    inst.i_out;
  consume_all rs inst.i_in
