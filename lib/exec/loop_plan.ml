open Functs_ir
open Functs_tensor
open Functs_core
open Functs_interp
open Frame

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

type t = {
  lp_roles : Loop_par.role array;  (* per carried slot *)
  lp_donate : bool array;
      (* per carried slot: the loop is the init's only use, in the same
         block, and the init is no graph parameter — so a run may adopt
         the init as the shared buffer when its storage has no other
         live reference *)
  lp_actions : laction array;  (* aligned with the body's bi_insts *)
  lp_reduction : bool;  (* any Reduced slot: fixed chunking + merge *)
}

(* Reduction chunking is fixed (independent of pool lanes and of whether
   the pool split the range), so domains=1/2/4 runs of the same prepared
   engine merge partials in the same order and stay bitwise-identical. *)
let reduce_max_chunks = 8

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
  else Fastops.clone ~alloc:rs.alloc bt

(* Every slice descriptor (view kinds, operand slots, buffer indices) is
   resolved to frame slots once, here, never per run or per iteration.
   A loop whose plan cannot be built (a missing slot, a malformed chain)
   gets [None] and stays sequential. *)
let build graph ~slot (node : Graph.node) (info : Loop_par.info) (bi : binst) =
  if Array.length bi.bi_params <> Array.length info.Loop_par.roles + 1 then None
  else
    let exception Bail in
    let req (v : Graph.value) =
      match slot v with Some s -> s | None -> raise Bail
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
            match Hashtbl.find_opt combines nid with
            | Some (j, acc_pos) ->
                if Array.length b.i_in <> 2 || Array.length b.i_out <> 1 then
                  raise Bail;
                L_reduce { rd_slot = j; rd_acc_pos = acc_pos }
            | None -> (
                match b.i_node.n_op with
                | Op.Access kind
                  when Array.length b.i_in >= 1 && Array.length b.i_out = 1 ->
                    L_view kind
                | Op.Assign kind
                  when Array.length b.i_in >= 2 && Array.length b.i_out = 1 ->
                    L_assign kind
                | _ -> L_plain))
    in
    match Array.map action bi.bi_insts with
    | exception Bail -> None
    | actions ->
        let donate =
          Array.mapi (fun j _ -> donatable graph node j) info.Loop_par.roles
        in
        Some
          {
            lp_roles = info.Loop_par.roles;
            lp_donate = donate;
            lp_actions = actions;
            lp_reduction =
              Array.exists
                (function Loop_par.Reduced _ -> true | _ -> false)
                info.Loop_par.roles;
          }

(* Shared carried buffers for Sliced slots.  When the loop is the
   init's only use (decided at prepare time) and nothing else references
   its storage, the init is adopted in place (same rule as assign
   donation); otherwise one pooled clone covers the whole loop. *)
let carried_buffers rs lp inits =
  Array.mapi
    (fun j role ->
      match role with
      | Loop_par.Sliced ->
          Some
            (adopt_or_clone rs ~donate:lp.lp_donate.(j)
               (Value.to_tensor inits.(j)))
      | Loop_par.Reduced _ | Loop_par.Passthrough -> None)
    lp.lp_roles

(* Horizontal parallelization (Algorithm 2), iteration-batched: the
   dependence analysis guarantees every carried tensor is either written
   through induction-disjoint slices (Sliced), folded by an associative
   combine (Reduced), or passed through untouched, so iterations execute
   on shared buffers with one in-place leaf write per recognized rebuild
   chain — no per-iteration scopes, refcounts, or buffer rotation.
   Bodies run the action table on a private frame per chunk, and
   [Pool.parallel_for] decides whether the chunks fan out across lanes
   or all run on the caller.  Returns the merged reduction results. *)
let exec rs ~pool (bi : binst) lp trip inits bufs =
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
  let caller = Domain.self () in
  (* Chunks on the run's own domain draw iteration scratch from the
     storage pool and hand it back when each iteration ends: nothing an
     iteration allocates outlives it ([L_write] copies into the shared
     buffer, reduction partials are fresh allocations).  Chunks on worker
     domains allocate fresh — the pool's free lists are single-domain. *)
  let run_iters (vals : Value.t option array) (cell : Value.t option array)
      lo hi =
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
              let leaf = Eval.apply_view_kind w.wr_leaf_kind !region leaf_ops in
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
      List.iter (Buffer_plan.release rs.pool) !scratch;
      scratch := []
    done
  in
  let body lo hi =
    (* Private frame per chunk: iterations rebind everything they
       define; outer bindings are only ever read. *)
    let vals = Array.copy rs.vals in
    if lp.lp_reduction then
      for c = lo to hi - 1 do
        run_iters vals partials.(c) (c * csize) (min trip ((c + 1) * csize))
      done
    else run_iters vals no_cell lo hi
  in
  (* Cost hint for the pool's cache-aware chunking: each chunk walks its
     slice of every carried buffer about once, so per-chunk bytes are the
     carried footprint spread over the chunk count. *)
  let carried_bytes =
    Array.fold_left
      (fun acc v ->
        match v with Value.Tensor t -> acc + (8 * Tensor.numel t) | _ -> acc)
      0 inits
  in
  ignore
    (Pool.parallel_for pool
       ~bytes_per_iter:(carried_bytes / max 1 nchunks)
       ~grain:1 ~n:nchunks body);
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
                    if acc_pos = 0 then [ !acc; partial ] else [ partial; !acc ]
                  in
                  match Fastops.apply_op combine inputs with
                  | [ out ] -> acc := out
                  | _ -> error "malformed reduction combine"))
            partials;
          Some !acc
      | Loop_par.Sliced | Loop_par.Passthrough -> None)
    lp.lp_roles

(* Bind a batched run's results to the loop's outputs: the shared
   buffers, the passed-through inits and the merged reductions. *)
let bind_outputs rs ~scope (inst : inst) lp inits bufs merged =
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
