let keep_always (op : Op.t) =
  Op.has_side_effect op || match op with Op.Update -> true | _ -> false

(* Mark phase: a node is live when reachable from graph returns, or when it
   (or anything nested in it) has side effects. *)
let mark g =
  let live : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec mark_node (node : Graph.node) =
    if not (Hashtbl.mem live node.n_id) then begin
      Hashtbl.add live node.n_id ();
      List.iter mark_value node.n_inputs;
      (* Conservatively keep every nested return chain of a live
         control-flow node; dead carried values are pruned separately. *)
      List.iter
        (fun (b : Graph.block) -> List.iter mark_value b.b_returns)
        node.n_blocks
    end
  and mark_value (v : Graph.value) =
    match v.v_origin with
    | Graph.Def (n, _) -> mark_node n
    | Graph.Param (b, _) -> begin
        (* Loop-carried params are fed by the node inputs and body returns,
           both marked when the owning node is marked. *)
        match b.b_parent with Some owner -> mark_node owner | None -> ()
      end
    | Graph.Detached -> ()
  in
  let rec mark_ancestors (node : Graph.node) =
    match node.n_parent with
    | None -> ()
    | Some b -> (
        match b.b_parent with
        | None -> ()
        | Some owner ->
            mark_node owner;
            mark_ancestors owner)
  in
  List.iter mark_value (Graph.returns g);
  Graph.iter_nodes g (fun node ->
      if keep_always node.n_op then begin
        mark_node node;
        mark_ancestors node
      end);
  live

let sweep g live =
  let removed = ref 0 in
  let rec sweep_block (block : Graph.block) =
    (* Reverse order so uses are removed before definitions. *)
    List.iter
      (fun (node : Graph.node) ->
        List.iter sweep_block node.n_blocks;
        if not (Hashtbl.mem live node.Graph.n_id) then begin
          Graph.erase_node node;
          incr removed
        end)
      (List.rev block.b_nodes)
  in
  sweep_block g.Graph.g_block;
  !removed

(* Drop one dead carried value / If output at a time; returns true when a
   change was made. *)
let prune_control_outputs g =
  let changed = ref false in
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let reindex_outputs (node : Graph.node) =
    List.iteri (fun i (o : Graph.value) -> o.v_origin <- Graph.Def (node, i)) node.n_outputs
  in
  let reindex_params (b : Graph.block) =
    List.iteri (fun i (p : Graph.value) -> p.v_origin <- Graph.Param (b, i)) b.b_params
  in
  let visit (node : Graph.node) =
    match (node.n_op, node.n_blocks) with
    | Op.If, [ then_b; else_b ] ->
        let rec find_dead i = function
          | [] -> None
          | (o : Graph.value) :: rest ->
              if Graph.has_uses g o then find_dead (i + 1) rest else Some i
        in
        (match find_dead 0 node.n_outputs with
        | None -> ()
        | Some i ->
            node.n_outputs <- drop_nth node.n_outputs i;
            then_b.b_returns <- drop_nth then_b.b_returns i;
            else_b.b_returns <- drop_nth else_b.b_returns i;
            reindex_outputs node;
            changed := true)
    | Op.Loop, [ body ] ->
        (* Backward closure (within the body) of the values feeding the
           returns at the given slots and the body's side effects: a
           carried slot can be dropped when its output is unused outside
           and its param only feeds its own return chain. *)
        let closure_of_returns keep_slots =
          let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
          let rec visit (v : Graph.value) =
            if not (Hashtbl.mem seen v.v_id) then begin
              Hashtbl.add seen v.v_id ();
              match v.v_origin with
              | Graph.Def (n, _) -> visit_node n
              | Graph.Param _ | Graph.Detached -> ()
            end
          and visit_node (n : Graph.node) =
            List.iter visit n.n_inputs;
            (* a nested If/Loop's outputs depend on its blocks' returns *)
            List.iter
              (fun (b : Graph.block) -> List.iter visit b.b_returns)
              n.n_blocks
          in
          List.iteri
            (fun k ret -> if List.mem k keep_slots then visit ret)
            body.b_returns;
          Graph.iter_block_nodes body (fun n ->
              if keep_always n.n_op then visit_node n);
          seen
        in
        let rec find_dead i = function
          | [] -> None
          | (o : Graph.value) :: rest ->
              if Graph.has_uses g o then find_dead (i + 1) rest
              else begin
                let param = List.nth body.b_params (i + 1) in
                let other_slots =
                  List.filteri (fun k _ -> k <> i) (List.mapi (fun k _ -> k) node.n_outputs)
                in
                let needed = closure_of_returns other_slots in
                if Hashtbl.mem needed param.v_id then find_dead (i + 1) rest
                else Some i
              end
        in
        (match find_dead 0 node.n_outputs with
        | None -> ()
        | Some i ->
            node.n_outputs <- drop_nth node.n_outputs i;
            node.n_inputs <- drop_nth node.n_inputs (i + 1);
            body.b_returns <- drop_nth body.b_returns i;
            body.b_params <- drop_nth body.b_params (i + 1);
            reindex_outputs node;
            reindex_params body;
            changed := true)
    | _, _ -> ()
  in
  Graph.iter_nodes g visit;
  !changed

let run_once g =
  let live = mark g in
  let removed = sweep g live in
  let pruned = prune_control_outputs g in
  (removed, pruned)

let removed_count g =
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    let removed, pruned = run_once g in
    total := !total + removed;
    continue := removed > 0 || pruned
  done;
  !total

let run g = ignore (removed_count g)
