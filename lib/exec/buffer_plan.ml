open Functs_ir
open Functs_tensor

type usage = { u_uses : int; u_pinned : bool }

let analyze (g : Graph.t) =
  let tbl : (int, usage) Hashtbl.t = Hashtbl.create 64 in
  let get id =
    Option.value (Hashtbl.find_opt tbl id) ~default:{ u_uses = 0; u_pinned = false }
  in
  let add_use id =
    let u = get id in
    Hashtbl.replace tbl id { u with u_uses = u.u_uses + 1 }
  in
  let pin id =
    let u = get id in
    Hashtbl.replace tbl id { u with u_pinned = true }
  in
  let rec walk (block : Graph.block) =
    (* Make sure every defined value has an entry, so "no entry" only means
       "value from another graph". *)
    List.iter (fun (p : Graph.value) -> ignore (get p.v_id)) block.b_params;
    List.iter
      (fun (n : Graph.node) ->
        List.iter (fun (o : Graph.value) -> ignore (get o.v_id)) n.n_outputs)
      block.b_nodes;
    List.iter (fun (v : Graph.value) -> pin v.v_id) block.b_returns;
    List.iter
      (fun (n : Graph.node) ->
        let container_consumer =
          match n.n_op with
          | Op.If | Op.Loop | Op.List_construct | Op.Update -> true
          | _ -> false
        in
        List.iter
          (fun (v : Graph.value) ->
            let crosses_block =
              match v.v_origin with
              | Graph.Detached -> true
              | _ -> not (Graph.defining_block v == Graph.node_block n)
            in
            if container_consumer || crosses_block then pin v.v_id
            else add_use v.v_id)
          n.n_inputs;
        List.iter walk n.n_blocks)
      block.b_nodes
  in
  walk g.g_block;
  (* Graph parameters belong to the caller. *)
  List.iter (fun (p : Graph.value) -> pin p.v_id) (Graph.params g);
  tbl

(* --- storage pool --- *)

(* Ownership is stamped directly on the storage ([Storage.owner]): [pool_id]
   while checked out, [-pool_id] while parked in the free list, anything else
   means "not ours".  [release] is on the executor's hot path for every
   refcount that hits zero, so membership must be an integer compare. *)

type pool = {
  pool_id : int;
  free : (int, Storage.t list ref) Hashtbl.t;  (* numel -> free storages *)
  mutable n_fresh : int;
  mutable n_reused : int;
}

let pool_counter = ref 0

let create_pool () =
  incr pool_counter;
  { pool_id = !pool_counter; free = Hashtbl.create 16; n_fresh = 0; n_reused = 0 }

let alloc pool shape =
  let n = Shape.numel shape in
  match Hashtbl.find_opt pool.free n with
  | Some ({ contents = s :: rest } as l) ->
      l := rest;
      Storage.set_owner s pool.pool_id;
      pool.n_reused <- pool.n_reused + 1;
      Tensor.of_storage s shape
  | _ ->
      (* a recycled storage holds stale data, so every consumer already
         writes its whole output: a fresh one needs no zero fill *)
      let t = Tensor.uninit shape in
      Storage.set_owner t.Tensor.storage pool.pool_id;
      pool.n_fresh <- pool.n_fresh + 1;
      t

let release pool (t : Tensor.t) =
  let s = t.Tensor.storage in
  if Storage.owner s = pool.pool_id then begin
    Storage.set_owner s (-pool.pool_id);
    let n = Storage.length s in
    match Hashtbl.find_opt pool.free n with
    | Some l -> l := s :: !l
    | None -> Hashtbl.replace pool.free n (ref [ s ])
  end

(* Drop every parked storage (the compile cache calls this when it evicts
   an engine, so a dead entry stops pinning its working set).  Checked-out
   storages are unaffected; they simply never return. *)
let clear pool =
  Hashtbl.iter (fun _ l -> List.iter (fun s -> Storage.set_owner s 0) !l) pool.free;
  Hashtbl.reset pool.free

let fresh_allocs pool = pool.n_fresh
let reuses pool = pool.n_reused
