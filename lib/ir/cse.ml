let mergeable (op : Op.t) =
  match op with
  | Op.Constant _ | Op.Scalar_binary _ | Op.Unary _ | Op.Binary _ | Op.Matmul
  | Op.Softmax _ | Op.Sum | Op.Sum_dim _ | Op.Max_dim _ | Op.Mean | Op.Cat _
  | Op.Stack _ | Op.Where | Op.Cumsum _ | Op.View _ | Op.Access _
  | Op.Assign _ | Op.List_construct | Op.List_index ->
      true
  (* Fresh-storage constructors and clones have identity; control flow,
     mutation and annotations are out of scope. *)
  | Op.Clone | Op.Zeros _ | Op.Ones _ | Op.Full _ | Op.Arange | Op.Mutate _
  | Op.If | Op.Loop | Op.Update ->
      false

(* Structural key: the op (whose attributes compare structurally — it
   contains no functions) plus input identities.  A float constant also
   keys on its bits: structural comparison holds [-0.] equal to [0.] and
   any NaN equal to any other, and merging those changes results. *)
type key = Key of Op.t * int64 * int list

let key_of (node : Graph.node) =
  let bits =
    match node.n_op with
    | Op.Constant (Op.Cfloat f) -> Int64.bits_of_float f
    | _ -> 0L
  in
  Key
    ( node.n_op,
      bits,
      List.map (fun (v : Graph.value) -> v.Graph.v_id) node.n_inputs )

let has_mutation g =
  let found = ref false in
  Graph.iter_nodes g (fun node -> if Op.is_mutation node.n_op then found := true);
  !found

let run (g : Graph.t) =
  if has_mutation g then 0
  else begin
    let merged = ref 0 in
    (* Scope chain: a node may reuse an expression computed earlier in its
       own block or in any ancestor block (which dominates it).  Forward
       chains merge in one pass because uses are rewritten before their
       consumers are visited. *)
    let rec walk_block scope (block : Graph.block) =
      let local : (key, Graph.value list) Hashtbl.t = Hashtbl.create 16 in
      let scope = local :: scope in
      let lookup k = List.find_map (fun tbl -> Hashtbl.find_opt tbl k) scope in
      (* Snapshot: nodes are removed from the list during the walk. *)
      List.iter
        (fun (node : Graph.node) ->
          List.iter (walk_block scope) node.n_blocks;
          if mergeable node.n_op && node.n_blocks = [] then begin
            let k = key_of node in
            match lookup k with
            | Some previous_outputs
              when List.length previous_outputs = List.length node.n_outputs ->
                List.iter2
                  (fun (old_out : Graph.value) replacement ->
                    Graph.replace_all_uses g ~old_value:old_out
                      ~new_value:replacement)
                  node.n_outputs previous_outputs;
                Graph.remove_node node;
                incr merged
            | Some _ | None -> Hashtbl.replace local k node.n_outputs
          end)
        (List.map Fun.id block.b_nodes)
    in
    walk_block [] g.g_block;
    !merged
  end
