type dim = Known of int | Unknown
type shape = dim array

type result = {
  shapes : (int, shape) Hashtbl.t;
  diagnostics : string list;
}

let known sizes = Array.map (fun n -> Known n) sizes

let concrete shape =
  if Array.for_all (function Known _ -> true | Unknown -> false) shape then
    Some (Array.map (function Known n -> n | Unknown -> 0) shape)
  else None

let to_string shape =
  let dim_str = function Known n -> string_of_int n | Unknown -> "?" in
  "[" ^ String.concat ", " (Array.to_list shape |> List.map dim_str) ^ "]"

let extent shape axis =
  if axis < 0 || axis >= Array.length shape then None
  else match shape.(axis) with Known n -> Some n | Unknown -> None

(* Predict a batched shape: the [axis] extent scaled by [factor], every
   other dimension untouched.  [None] when the axis is out of rank or its
   extent is unknown — the serving layer treats that as "not batchable
   along this axis". *)
let scale_axis shape ~axis ~factor =
  match extent shape axis with
  | None -> None
  | Some n ->
      let out = Array.copy shape in
      out.(axis) <- Known (n * factor);
      Some out

let matches shape concrete =
  Array.length shape = Array.length concrete
  && Array.for_all2
       (fun d c -> match d with Known n -> n = c | Unknown -> true)
       shape concrete

(* Join in the flat lattice per dimension; ranks must agree. *)
let join_shapes a b =
  if Array.length a <> Array.length b then None
  else
    Some
      (Array.map2
         (fun da db ->
           match (da, db) with
           | Known x, Known y when x = y -> Known x
           | _, _ -> Unknown)
         a b)

let broadcast_dims a b =
  match (a, b) with
  | Known 1, d | d, Known 1 -> Some d
  | Known x, Known y -> if x = y then Some (Known x) else None
  | Unknown, d | d, Unknown ->
      (* the other side could be 1 at runtime; result size is unknown
         unless both are the same unknown — be conservative *)
      Some (match d with Known 1 -> Unknown | _ -> d)

let broadcast_shapes a b =
  let na = Array.length a and nb = Array.length b in
  let n = max na nb in
  let out = Array.make n Unknown in
  let ok = ref true in
  for i = 0 to n - 1 do
    let da = if i < n - na then Known 1 else a.(i - (n - na)) in
    let db = if i < n - nb then Known 1 else b.(i - (n - nb)) in
    match broadcast_dims da db with
    | Some d -> out.(i) <- d
    | None -> ok := false
  done;
  if !ok then Some out else None

type state = {
  tbl : (int, shape) Hashtbl.t;
  mutable diags : string list;
  mutable changed : bool;
}

let diag st fmt = Format.kasprintf (fun m -> st.diags <- m :: st.diags) fmt

let get st (v : Graph.value) = Hashtbl.find_opt st.tbl v.v_id

let set st (v : Graph.value) shape =
  match Hashtbl.find_opt st.tbl v.v_id with
  | None ->
      Hashtbl.replace st.tbl v.v_id shape;
      st.changed <- true
  | Some existing -> begin
      match join_shapes existing shape with
      | Some joined ->
          if joined <> existing then begin
            Hashtbl.replace st.tbl v.v_id joined;
            st.changed <- true
          end
      | None ->
          (* rank conflict: degrade to absent (fully unknown) *)
          Hashtbl.remove st.tbl v.v_id;
          st.changed <- true
    end

let constant_int (v : Graph.value) =
  match v.v_origin with
  | Graph.Def (n, _) -> begin
      match n.n_op with Op.Constant (Op.Cint i) -> Some i | _ -> None
    end
  | _ -> None

let drop_dim shape dim =
  Array.init
    (Array.length shape - 1)
    (fun i -> if i < dim then shape.(i) else shape.(i + 1))

let insert_dim shape dim d =
  Array.init
    (Array.length shape + 1)
    (fun i -> if i < dim then shape.(i) else if i = dim then d else shape.(i - 1))

let view_shape st node kind (base : shape) operands =
  let ndim = Array.length base in
  let bad fmt = Format.kasprintf (fun m -> diag st "%s: %s" (Printer.node_to_string node) m; None) fmt in
  match kind with
  | Op.Identity -> Some base
  | Op.Select { dim } ->
      if dim < 0 || dim >= ndim then bad "select dim %d out of rank %d" dim ndim
      else Some (drop_dim base dim)
  | Op.Slice { dim; step } ->
      if dim < 0 || dim >= ndim then bad "slice dim %d out of rank %d" dim ndim
      else begin
        let fresh = Array.copy base in
        (* length known only with constant bounds and a known extent *)
        (match (operands, base.(dim)) with
        | [ start; stop ], Known size -> begin
            match (constant_int start, constant_int stop) with
            | Some s0, Some s1 ->
                let clamp v = max 0 (min size v) in
                let s0 = clamp (if s0 < 0 then s0 + size else s0) in
                let s1 = clamp (if s1 < 0 then s1 + size else s1) in
                let len = if s1 > s0 then 1 + ((s1 - s0 - 1) / step) else 0 in
                fresh.(dim) <- Known len
            | _, _ -> fresh.(dim) <- Unknown
          end
        | _, _ -> fresh.(dim) <- Unknown);
        Some fresh
      end
  | Op.Reshape { shape } ->
      (* element-count check when everything is known *)
      let total = Array.fold_left ( * ) 1 shape in
      let base_total =
        Array.fold_left
          (fun acc d -> match (acc, d) with Some a, Known n -> Some (a * n) | _ -> None)
          (Some 1) base
      in
      (match base_total with
      | Some n when n <> total ->
          bad "reshape %s to %d elements from %d" (to_string base) total n
      | _ -> Some (known shape))
  | Op.Permute { dims } ->
      if Array.length dims <> ndim then
        bad "permute rank %d on rank-%d tensor" (Array.length dims) ndim
      else Some (Array.map (fun d -> base.(d)) dims)
  | Op.Expand { sizes } ->
      if Array.length sizes < ndim then bad "expand cannot drop dimensions"
      else Some (known sizes)
  | Op.Unsqueeze { dim } ->
      if dim < 0 || dim > ndim then bad "unsqueeze dim %d out of range" dim
      else Some (insert_dim base dim (Known 1))
  | Op.Squeeze { dim } ->
      if dim < 0 || dim >= ndim then bad "squeeze dim %d out of range" dim
      else begin
        match base.(dim) with
        | Known 1 | Unknown -> Some (drop_dim base dim)
        | Known n -> bad "squeeze of dimension with size %d" n
      end

let rec infer_node st (node : Graph.node) =
  (* scalar-typed operands act as 0-d tensors in broadcasting ops *)
  let value_shape (v : Graph.value) =
    match v.v_type with
    | Dtype.Scalar _ -> Some [||]
    | Dtype.Tensor | Dtype.List _ -> get st v
  in
  let in_shape i = List.nth_opt node.n_inputs i |> fun v -> Option.bind v value_shape in
  let out i = List.nth node.n_outputs i in
  let set_out0 = function Some s -> set st (out 0) s | None -> () in
  match node.n_op with
  | Op.Constant _ | Op.Scalar_binary _ | Op.Update | Op.List_construct
  | Op.List_index ->
      ()
  | Op.Unary _ | Op.Clone | Op.Cumsum _ | Op.Softmax _ -> set_out0 (in_shape 0)
  | Op.Binary _ | Op.Where -> begin
      let a = in_shape 0
      and b = in_shape (if node.n_op = Op.Where then 2 else 1) in
      match (a, b) with
      | Some a, Some b -> begin
          match broadcast_shapes a b with
          | Some s -> set_out0 (Some s)
          | None ->
              diag st "%s: shapes %s and %s do not broadcast"
                (Printer.node_to_string node) (to_string a) (to_string b)
        end
      | _, _ -> ()
    end
  | Op.Matmul -> begin
      match (in_shape 0, in_shape 1) with
      | Some a, Some b -> begin
          let ra = Array.length a and rb = Array.length b in
          let check_inner ka kb =
            match (ka, kb) with
            | Known x, Known y when x <> y ->
                diag st "%s: matmul inner dims %d vs %d"
                  (Printer.node_to_string node) x y
            | _, _ -> ()
          in
          match (ra, rb) with
          | 2, 2 ->
              check_inner a.(1) b.(0);
              set_out0 (Some [| a.(0); b.(1) |])
          | 3, 2 ->
              check_inner a.(2) b.(0);
              set_out0 (Some [| a.(0); a.(1); b.(1) |])
          | 3, 3 ->
              check_inner a.(2) b.(1);
              set_out0 (Some [| a.(0); a.(1); b.(2) |])
          | 1, 2 ->
              check_inner a.(0) b.(0);
              set_out0 (Some [| b.(1) |])
          | 2, 1 ->
              check_inner a.(1) b.(0);
              set_out0 (Some [| a.(0) |])
          | _, _ ->
              diag st "%s: unsupported matmul ranks %d x %d"
                (Printer.node_to_string node) ra rb
        end
      | _, _ -> ()
    end
  | Op.Sum | Op.Mean -> set_out0 (Some [||])
  | Op.Sum_dim { dim; keepdim } | Op.Max_dim { dim; keepdim } -> begin
      match in_shape 0 with
      | Some s when dim >= 0 && dim < Array.length s ->
          let reduced = Array.copy s in
          reduced.(dim) <- Known 1;
          set_out0 (Some (if keepdim then reduced else drop_dim reduced dim))
      | Some s ->
          diag st "%s: reduction dim %d out of rank %d"
            (Printer.node_to_string node) dim (Array.length s)
      | None -> ()
    end
  | Op.Cat { dim } -> begin
      let shapes = List.map value_shape node.n_inputs in
      if List.for_all Option.is_some shapes then begin
        match List.map Option.get shapes with
        | [] -> ()
        | first :: rest when dim < Array.length first ->
            let total =
              List.fold_left
                (fun acc s ->
                  match (acc, s.(dim)) with
                  | Some a, Known n -> Some (a + n)
                  | _ -> None)
                (Some 0) (first :: rest)
            in
            let out_shape = Array.copy first in
            out_shape.(dim) <-
              (match total with Some n -> Known n | None -> Unknown);
            set_out0 (Some out_shape)
        | _ -> ()
      end
    end
  | Op.Stack { dim } -> begin
      match in_shape 0 with
      | Some s when dim <= Array.length s ->
          set_out0 (Some (insert_dim s dim (Known (List.length node.n_inputs))))
      | _ -> ()
    end
  | Op.Zeros { shape } | Op.Ones { shape } | Op.Full { shape } ->
      set_out0 (Some (known shape))
  | Op.Arange -> begin
      match constant_int (List.nth node.n_inputs 0) with
      | Some n -> set_out0 (Some [| Known n |])
      | None -> set_out0 (Some [| Unknown |])
    end
  | Op.View kind | Op.Access kind -> begin
      match in_shape 0 with
      | Some base ->
          set_out0 (view_shape st node kind base (List.tl node.n_inputs))
      | None -> ()
    end
  | Op.Assign _ -> set_out0 (in_shape 0)
  | Op.Mutate _ -> set_out0 (in_shape 0)
  | Op.If -> begin
      match node.n_blocks with
      | [ then_b; else_b ] ->
          infer_block st then_b;
          infer_block st else_b;
          List.iteri
            (fun i o ->
              match
                ( List.nth_opt then_b.b_returns i |> fun v -> Option.bind v (get st),
                  List.nth_opt else_b.b_returns i |> fun v -> Option.bind v (get st)
                )
              with
              | Some a, Some b -> begin
                  match join_shapes a b with
                  | Some s -> set st o s
                  | None -> ()
                end
              | _, _ -> ())
            node.n_outputs
      | _ -> ()
    end
  | Op.Loop -> begin
      match node.n_blocks with
      | [ body ] -> begin
          match body.b_params with
          | _i :: carried ->
              (* seed carried params from inits, then iterate to a joined
                 fixpoint (the per-dim lattice has height 2, so twice is
                 enough, but we loop on change to be safe) *)
              List.iteri
                (fun idx p ->
                  match List.nth_opt node.n_inputs (idx + 1) with
                  | Some init -> begin
                      match get st init with Some s -> set st p s | None -> ()
                    end
                  | None -> ())
                carried;
              let rounds = ref 0 in
              let continue = ref true in
              while !continue && !rounds < 4 do
                incr rounds;
                let before = st.changed in
                st.changed <- false;
                infer_block st body;
                (* feed returns back into params *)
                List.iteri
                  (fun idx p ->
                    match List.nth_opt body.b_returns idx with
                    | Some r -> begin
                        match get st r with Some s -> set st p s | None -> ()
                      end
                    | None -> ())
                  carried;
                continue := st.changed;
                st.changed <- before || st.changed
              done;
              List.iteri
                (fun idx o ->
                  match List.nth_opt body.b_returns idx with
                  | Some r -> begin
                      match get st r with Some s -> set st o s | None -> ()
                    end
                  | None -> ())
                node.n_outputs
          | [] -> ()
        end
      | _ -> ()
    end

and infer_block st (block : Graph.block) =
  List.iter (infer_node st) block.b_nodes

let infer (g : Graph.t) ~inputs =
  let st = { tbl = Hashtbl.create 64; diags = []; changed = false } in
  (try
     List.iter2
       (fun (p : Graph.value) shape ->
         match shape with Some s -> set st p s | None -> ())
       (Graph.params g) inputs
   with Invalid_argument _ ->
     diag st "input shape list arity does not match graph parameters");
  infer_block st g.g_block;
  { shapes = st.tbl; diagnostics = List.rev st.diags }

let shape_of result (v : Graph.value) = Hashtbl.find_opt result.shapes v.v_id
