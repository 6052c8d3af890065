type value = {
  v_id : int;
  mutable v_name : string;
  mutable v_type : Dtype.t;
  mutable v_origin : origin;
}

and origin = Def of node * int | Param of block * int | Detached

and node = {
  n_id : int;
  mutable n_op : Op.t;
  mutable n_inputs : value list;
  mutable n_outputs : value list;
  mutable n_blocks : block list;
  mutable n_parent : block option;
}

and block = {
  b_id : int;
  mutable b_params : value list;
  mutable b_nodes : node list;
  mutable b_returns : value list;
  mutable b_parent : node option;
}

type t = { g_name : string; g_block : block }

let value_counter = ref 0
let node_counter = ref 0
let block_counter = ref 0

let next counter =
  incr counter;
  !counter

let fresh_value ?(name = "") ty =
  { v_id = next value_counter; v_name = name; v_type = ty; v_origin = Detached }

let fresh_block () =
  {
    b_id = next block_counter;
    b_params = [];
    b_nodes = [];
    b_returns = [];
    b_parent = None;
  }

let create name ~param_types =
  let block = fresh_block () in
  block.b_params <-
    List.mapi
      (fun i (pname, ty) ->
        let v = fresh_value ~name:pname ty in
        v.v_origin <- Param (block, i);
        v)
      param_types;
  { g_name = name; g_block = block }

let params g = g.g_block.b_params
let returns g = g.g_block.b_returns
let set_returns g values = g.g_block.b_returns <- values

let make_node_named op inputs ~outputs =
  let node =
    {
      n_id = next node_counter;
      n_op = op;
      n_inputs = inputs;
      n_outputs = [];
      n_blocks = [];
      n_parent = None;
    }
  in
  node.n_outputs <-
    List.mapi
      (fun i (name, ty) ->
        let v = fresh_value ~name ty in
        v.v_origin <- Def (node, i);
        v)
      outputs;
  node

let make_node op inputs ~output_types =
  make_node_named op inputs ~outputs:(List.map (fun ty -> ("", ty)) output_types)

let append block node =
  node.n_parent <- Some block;
  block.b_nodes <- block.b_nodes @ [ node ]

let prepend block node =
  node.n_parent <- Some block;
  block.b_nodes <- node :: block.b_nodes

let node_block node =
  match node.n_parent with
  | Some b -> b
  | None -> invalid_arg "Graph.node_block: node is not attached to a block"

let node_index node =
  let block = node_block node in
  let rec find i = function
    | [] -> invalid_arg "Graph.node_index: node not found in its parent block"
    | n :: rest -> if n == node then i else find (i + 1) rest
  in
  find 0 block.b_nodes

let insert_at block pos node =
  node.n_parent <- Some block;
  let rec go i = function
    | [] -> [ node ]
    | n :: rest -> if i = pos then node :: n :: rest else n :: go (i + 1) rest
  in
  block.b_nodes <- go 0 block.b_nodes

let insert_before ~anchor node =
  let block = node_block anchor in
  insert_at block (node_index anchor) node

let insert_after ~anchor node =
  let block = node_block anchor in
  insert_at block (node_index anchor + 1) node

let detach node =
  let block = node_block node in
  block.b_nodes <- List.filter (fun n -> not (n == node)) block.b_nodes;
  node.n_parent <- None;
  List.iter (fun v -> v.v_origin <- Detached) node.n_outputs

let add_block node =
  let block = fresh_block () in
  block.b_parent <- Some node;
  node.n_blocks <- node.n_blocks @ [ block ];
  block

let add_block_param block ?(name = "") ty =
  let v = fresh_value ~name ty in
  v.v_origin <- Param (block, List.length block.b_params);
  block.b_params <- block.b_params @ [ v ];
  v

let add_block_return block value = block.b_returns <- block.b_returns @ [ value ]

let add_node_output node ?(name = "") ty =
  let v = fresh_value ~name ty in
  v.v_origin <- Def (node, List.length node.n_outputs);
  node.n_outputs <- node.n_outputs @ [ v ];
  v

let add_node_input node value = node.n_inputs <- node.n_inputs @ [ value ]

let defining_node value =
  match value.v_origin with
  | Def (n, _) -> Some n
  | Param _ | Detached -> None

let defining_block value =
  match value.v_origin with
  | Param (b, _) -> b
  | Def (n, _) -> node_block n
  | Detached -> invalid_arg "Graph.defining_block: value is detached"

let rec iter_block_nodes block f =
  List.iter
    (fun node ->
      f node;
      List.iter (fun b -> iter_block_nodes b f) node.n_blocks)
    block.b_nodes

let iter_nodes g f = iter_block_nodes g.g_block f

let all_nodes g =
  let acc = ref [] in
  iter_nodes g (fun n -> acc := n :: !acc);
  List.rev !acc

type use = Input of node * int | Return of block * int

let rec block_uses block value acc =
  let acc = ref acc in
  List.iter
    (fun node ->
      List.iteri
        (fun i input -> if input == value then acc := Input (node, i) :: !acc)
        node.n_inputs;
      List.iter (fun b -> acc := block_uses b value !acc) node.n_blocks)
    block.b_nodes;
  List.iteri
    (fun i ret -> if ret == value then acc := Return (block, i) :: !acc)
    block.b_returns;
  !acc

let uses_in g value = List.rev (block_uses g.g_block value [])
let has_uses g value = uses_in g value <> []

let remove_node node =
  (* The use check needs the graph root; walk up to the outermost block. *)
  let rec root block =
    match block.b_parent with None -> block | Some n -> root (node_block n)
  in
  let top = root (node_block node) in
  let g = { g_name = ""; g_block = top } in
  List.iter
    (fun v ->
      if has_uses g v then
        invalid_arg
          (Printf.sprintf "Graph.remove_node: output %%%s still has uses" v.v_name))
    node.n_outputs;
  detach node

let erase_node node = detach node

let rec subst_block block ~old_value ~new_value =
  List.iter (fun node -> subst_node node ~old_value ~new_value) block.b_nodes;
  block.b_returns <-
    List.map (fun v -> if v == old_value then new_value else v) block.b_returns

and subst_node node ~old_value ~new_value =
  node.n_inputs <-
    List.map (fun v -> if v == old_value then new_value else v) node.n_inputs;
  List.iter (fun b -> subst_block b ~old_value ~new_value) node.n_blocks

let replace_all_uses g ~old_value ~new_value =
  subst_block g.g_block ~old_value ~new_value

let replace_uses_after ~anchor ~old_value ~new_value =
  let block = node_block anchor in
  let after = ref false in
  List.iter
    (fun node ->
      if !after then subst_node node ~old_value ~new_value;
      if node == anchor then after := true)
    block.b_nodes;
  block.b_returns <-
    List.map (fun v -> if v == old_value then new_value else v) block.b_returns

let block_ancestors block =
  let rec go acc block =
    match block.b_parent with
    | None -> List.rev (block :: acc)
    | Some node -> go (block :: acc) (node_block node)
  in
  go [] block

let is_ancestor_block ~ancestor block =
  List.exists (fun b -> b == ancestor) (block_ancestors block)

let size g =
  let count = ref 0 in
  iter_nodes g (fun _ -> incr count);
  !count

(* Deep copy.  Value identity is threaded through a physical-equality
   association table keyed by value id. *)
let clone g =
  let mapping : (int, value) Hashtbl.t = Hashtbl.create 64 in
  let map_value v =
    match Hashtbl.find_opt mapping v.v_id with
    | Some v' -> v'
    | None ->
        let v' = fresh_value ~name:v.v_name v.v_type in
        Hashtbl.add mapping v.v_id v';
        v'
  in
  let rec clone_block src dst =
    dst.b_params <-
      List.mapi
        (fun i p ->
          let p' = map_value p in
          p'.v_origin <- Param (dst, i);
          p')
        src.b_params;
    List.iter
      (fun node ->
        let node' =
          {
            n_id = next node_counter;
            n_op = node.n_op;
            n_inputs = List.map map_value node.n_inputs;
            n_outputs = [];
            n_blocks = [];
            n_parent = None;
          }
        in
        node'.n_outputs <-
          List.mapi
            (fun i o ->
              let o' = map_value o in
              o'.v_origin <- Def (node', i);
              o')
            node.n_outputs;
        List.iter
          (fun b ->
            let b' = add_block node' in
            clone_block b b')
          node.n_blocks;
        append dst node')
      src.b_nodes;
    dst.b_returns <- List.map map_value src.b_returns
  in
  let top = fresh_block () in
  clone_block g.g_block top;
  { g_name = g.g_name; g_block = top }
