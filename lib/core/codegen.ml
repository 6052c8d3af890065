open Functs_ir
open Functs_tensor

(* --- symbolic index arithmetic --- *)

type ix = Ivar of string | Iconst of int | Iadd of ix * ix | Isub of ix * ix

let iadd a b =
  match (a, b) with
  | Iconst 0, x | x, Iconst 0 -> x
  | Iconst x, Iconst y -> Iconst (x + y)
  | _ -> Iadd (a, b)

let isub a b =
  match (a, b) with
  | x, Iconst 0 -> x
  | Iconst x, Iconst y -> Iconst (x - y)
  | Iadd (x, Iconst c), Iconst d when c = d -> x
  | _ -> Isub (a, b)

let rec ix_to_string = function
  | Ivar s -> s
  | Iconst c -> string_of_int c
  | Iadd (a, b) -> Printf.sprintf "(%s + %s)" (ix_to_string a) (ix_to_string b)
  | Isub (a, b) -> Printf.sprintf "(%s - %s)" (ix_to_string a) (ix_to_string b)

type cond =
  | Ceq of ix * ix
  | Cge of ix * ix
  | Clt of ix * ix
  | Cmod of ix * ix * int

let cond_to_string = function
  | Ceq (a, b) -> Printf.sprintf "%s == %s" (ix_to_string a) (ix_to_string b)
  | Cge (a, b) -> Printf.sprintf "%s >= %s" (ix_to_string a) (ix_to_string b)
  | Clt (a, b) -> Printf.sprintf "%s < %s" (ix_to_string a) (ix_to_string b)
  | Cmod (a, b, s) ->
      Printf.sprintf "(%s - %s) %% %d == 0" (ix_to_string a) (ix_to_string b) s

type cexpr =
  | Cread of Graph.value * ix list
  | Clit of float
  | Cunary of Scalar.unary * cexpr
  | Cbinary of Scalar.binary * cexpr * cexpr
  | Ccond of cond list * cexpr * cexpr
  | Cwhere of cexpr * cexpr * cexpr
  | Creduce of [ `Sum | `Max ] * string * int * cexpr
  | Cmatmul of Graph.value * Graph.value
  | Copaque of string

type statement = {
  s_out : Graph.value;
  s_rank : int;
  s_store : bool;
  s_expr : cexpr;
}

type kernel = {
  k_name : string;
  k_group : int;
  k_inputs : (string * Graph.value) list;
  k_outputs : (string * Graph.value) list;
  k_stmts : statement list;
}

(* --- naming and shapes --- *)

let value_ref (v : Graph.value) =
  if v.v_name = "" then Printf.sprintf "v%d" v.v_id
  else Printf.sprintf "%s_%d" v.v_name v.v_id

let rank_of shapes (v : Graph.value) =
  match Shape_infer.shape_of shapes v with
  | Some s -> Some (Array.length s)
  | None -> None

let dims_of shapes (v : Graph.value) = Shape_infer.shape_of shapes v

let scalar_operand (v : Graph.value) =
  match v.v_origin with
  | Graph.Def (n, _) -> begin
      match n.n_op with
      | Op.Constant (Op.Cint i) -> Iconst i
      | _ -> Ivar (value_ref v)
    end
  | _ -> Ivar (value_ref v)

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* total accessor: a too-short index means the value's rank was unknown;
   a dim counted from the end stays opaque too *)
let nth_ix index dim = if dim < 0 then None else List.nth_opt index dim

let insert_nth l n x =
  let rec go i = function
    | rest when i = n -> x :: rest
    | [] -> [ x ]
    | y :: rest -> y :: go (i + 1) rest
  in
  go 0 l

type ctx = {
  shapes : Shape_infer.result;
  plan : Fusion.plan;
  gid : int;
  counter : int ref;
  unit_vars : (string, unit) Hashtbl.t;
      (* index variables that only take the value 0: the current
         statement's extent-1 output dims and extent-1 reductions *)
}

let fresh_red ctx extent =
  let r = Printf.sprintf "r%d" !(ctx.counter) in
  incr ctx.counter;
  if extent = 1 then Hashtbl.replace ctx.unit_vars r ();
  r

let rec always_zero ctx = function
  | Iconst c -> c = 0
  | Ivar name -> Hashtbl.mem ctx.unit_vars name
  | Iadd (a, b) | Isub (a, b) -> always_zero ctx a && always_zero ctx b

(* Align an output-ranked index onto an input with the given shape:
   truncate from the left, and pin a size-1 dimension to 0 only on a real
   broadcast — where the aligned index can take a value other than 0.  An
   index that is always 0 (an extent-1 output dim) keeps its variable, so
   the kernel reads the same as at any larger extent. *)
let broadcast_index ctx (v : Graph.value) index =
  match dims_of ctx.shapes v with
  | None -> None
  | Some dims ->
      let rank = Array.length dims in
      let out_rank = List.length index in
      let tail =
        if out_rank >= rank then
          List.filteri (fun i _ -> i >= out_rank - rank) index
        else index
      in
      Some
        (List.mapi
           (fun i ixv ->
             match dims.(i) with
             | Shape_infer.Known 1 when not (always_zero ctx ixv) -> Iconst 0
             | _ -> ixv)
           tail)

let in_group ctx (v : Graph.value) =
  match Graph.defining_node v with
  | None -> false
  | Some node -> (
      match Fusion.kernel_class_of ctx.plan node with
      | Fusion.Kernel g -> g = ctx.gid
      | Fusion.No_cost -> (
          match node.n_op with
          | Op.Access _ | Op.View _ | Op.Constant _ -> true
          | _ -> false))

(* Only pure data movement and constants fold into a consumer's index
   expression; every compute node gets its own statement and is referenced
   by name — full inlining is exponential on assign chains. *)
let inline_through ctx (v : Graph.value) =
  in_group ctx v
  &&
  match Graph.defining_node v with
  | Some node -> (
      match node.n_op with
      | Op.Access _ | Op.View _ | Op.Constant _ -> true
      | _ -> false)
  | None -> false

(* Reduction extent of a dimension, when known. *)
let extent_of ctx (v : Graph.value) dim =
  match dims_of ctx.shapes v with
  | Some dims when dim >= 0 && dim < Array.length dims -> begin
      match dims.(dim) with Shape_infer.Known n -> n | Shape_infer.Unknown -> 0
    end
  | _ -> 0

(* The slice-write predicate, with bounds dropped when provably full. *)
let slice_conds ctx (base : Graph.value) dim ~start ~stop ~step ixv =
  let extent = extent_of ctx base dim in
  let lower = match start with Iconst 0 -> [] | s -> [ Cge (ixv, s) ] in
  let upper =
    match stop with
    | Iconst s when extent > 0 && s >= extent -> []
    | s -> [ Clt (ixv, s) ]
  in
  let stride = if step = 1 then [] else [ Cmod (ixv, start, step) ] in
  lower @ upper @ stride

let rec expr_of ctx (v : Graph.value) index =
  if not (inline_through ctx v) then
    match broadcast_index ctx v index with
    | Some ix -> Cread (v, ix)
    | None -> Copaque (value_ref v ^ "[*]")
  else begin
    match Graph.defining_node v with
    | None -> Cread (v, index)
    | Some node -> node_expr ctx node index
  end

and node_expr ctx (node : Graph.node) index =
  let input i = List.nth node.n_inputs i in
  let sub i idx =
    let v = input i in
    match broadcast_index ctx v idx with
    | Some ix -> expr_of ctx v ix
    | None -> expr_of ctx v idx
  in
  match node.n_op with
  | Op.Constant (Op.Cfloat f) -> Clit f
  | Op.Constant (Op.Cint i) -> Clit (float_of_int i)
  | Op.Constant (Op.Cbool b) -> Clit (if b then 1.0 else 0.0)
  | Op.Unary u -> Cunary (u, sub 0 index)
  | Op.Binary b -> Cbinary (b, sub 0 index, sub 1 index)
  | Op.Where -> Cwhere (sub 0 index, sub 1 index, sub 2 index)
  | Op.Clone -> sub 0 index
  | Op.View kind | Op.Access kind -> access_expr ctx node kind index
  | Op.Assign kind -> assign_expr ctx node kind index
  | Op.Softmax { dim } ->
      let extent = extent_of ctx (input 0) dim in
      let r = fresh_red ctx extent in
      let red_index =
        List.mapi (fun i ixv -> if i = dim then Ivar r else ixv) index
      in
      Cbinary
        ( Scalar.Div,
          Cunary (Scalar.Exp, sub 0 index),
          Creduce (`Sum, r, extent, Cunary (Scalar.Exp, sub 0 red_index)) )
  | Op.Sum_dim { dim; keepdim } ->
      let extent = extent_of ctx (input 0) dim in
      let r = fresh_red ctx extent in
      let inner =
        if keepdim then
          List.mapi (fun i ixv -> if i = dim then Ivar r else ixv) index
        else insert_nth index dim (Ivar r)
      in
      Creduce (`Sum, r, extent, sub 0 inner)
  | Op.Max_dim { dim; keepdim } ->
      let extent = extent_of ctx (input 0) dim in
      let r = fresh_red ctx extent in
      let inner =
        if keepdim then
          List.mapi (fun i ixv -> if i = dim then Ivar r else ixv) index
        else insert_nth index dim (Ivar r)
      in
      Creduce (`Max, r, extent, sub 0 inner)
  | Op.Zeros _ -> Clit 0.0
  | Op.Ones _ -> Clit 1.0
  | Op.Full _ -> begin
      match (input 0).v_origin with
      | Graph.Def (n, _) -> begin
          match n.n_op with
          | Op.Constant (Op.Cfloat f) -> Clit f
          | Op.Constant (Op.Cint i) -> Clit (float_of_int i)
          | _ -> Copaque "<full>"
        end
      | _ -> Copaque "<full>"
    end
  | Op.Matmul -> (
      let a = input 0 and b = input 1 in
      match (rank_of ctx.shapes a, rank_of ctx.shapes b) with
      | Some 2, Some 2 -> Cmatmul (a, b)
      | _ -> Copaque "<matmul of non-2-D operands>")
  | Op.Sum | Op.Mean -> Copaque "<full reduction>"
  | Op.Arange | Op.Scalar_binary _ -> Copaque "<scalar>"
  | _ -> Cread (List.hd node.n_outputs, index)

and access_expr ctx (node : Graph.node) kind index =
  let base = List.hd node.n_inputs in
  let operand i = scalar_operand (List.nth node.n_inputs (1 + i)) in
  match kind with
  | Op.Identity -> expr_of ctx base index
  | Op.Select { dim } -> expr_of ctx base (insert_nth index dim (operand 0))
  | Op.Slice { dim; step } ->
      let start = operand 0 in
      let mapped =
        List.mapi
          (fun i ixv ->
            if i = dim then
              if step = 1 then iadd start ixv
              else
                iadd start
                  (Ivar (Printf.sprintf "(%s * %d)" (ix_to_string ixv) step))
            else ixv)
          index
      in
      expr_of ctx base mapped
  | Op.Unsqueeze { dim } -> expr_of ctx base (drop_nth index dim)
  | Op.Squeeze { dim } -> expr_of ctx base (insert_nth index dim (Iconst 0))
  | Op.Permute { dims } ->
      if List.length index < Array.length dims then Copaque "<unranked access>"
      else
        let rank = Array.length dims in
        let base_index =
          List.init rank (fun bd ->
              let out_pos = ref 0 in
              Array.iteri (fun i d -> if d = bd then out_pos := i) dims;
              List.nth index !out_pos)
        in
        expr_of ctx base base_index
  | Op.Reshape _ | Op.Expand _ -> Copaque (value_ref base ^ "[reindex]")

and assign_expr ctx (node : Graph.node) kind index =
  let base = List.nth node.n_inputs 0 in
  let src = List.nth node.n_inputs 1 in
  let operand i = scalar_operand (List.nth node.n_inputs (2 + i)) in
  let src_expr idx =
    match broadcast_index ctx src idx with
    | Some ix -> expr_of ctx src ix
    | None -> expr_of ctx src idx
  in
  let select conds then_ else_ =
    match conds with [] -> then_ | cs -> Ccond (cs, then_, else_)
  in
  match kind with
  | Op.Identity -> src_expr index
  | Op.Select { dim } -> begin
      match nth_ix index dim with
      | None -> Copaque "<unranked assign>"
      | Some ixd ->
          let k = operand 0 in
          select
            [ Ceq (ixd, k) ]
            (src_expr (drop_nth index dim))
            (expr_of ctx base index)
    end
  | Op.Slice { dim; step } -> begin
      match nth_ix index dim with
      | None -> Copaque "<unranked assign>"
      | Some ixv ->
      let start = operand 0 and stop = operand 1 in
      let conds = slice_conds ctx base dim ~start ~stop ~step ixv in
      let src_ix =
        List.mapi
          (fun i x ->
            if i = dim then
              if step = 1 then isub x start
              else
                Ivar
                  (Printf.sprintf "((%s) / %d)" (ix_to_string (isub x start)) step)
            else x)
          index
      in
      select conds (src_expr src_ix) (expr_of ctx base index)
    end
  | Op.Unsqueeze { dim } -> begin
      match nth_ix index dim with
      | None -> Copaque "<unranked assign>"
      | Some ixd ->
          select [ Ceq (ixd, Iconst 0) ] (src_expr index)
            (expr_of ctx base index)
    end
  | Op.Squeeze { dim } -> src_expr (insert_nth index dim (Iconst 0))
  | Op.Permute { dims } ->
      if List.length index < Array.length dims then Copaque "<unranked assign>"
      else
        let rank = Array.length dims in
        let src_index = List.init rank (fun i -> List.nth index dims.(i)) in
        src_expr src_index
  | Op.Reshape _ | Op.Expand _ -> Copaque "<scatter>"

(* --- kernel assembly --- *)

let group_members (g : Graph.t) plan =
  let order : (int, Graph.node list) Hashtbl.t = Hashtbl.create 16 in
  let sequence = ref [] in
  Graph.iter_nodes g (fun node ->
      match Fusion.kernel_class_of plan node with
      | Fusion.Kernel gid ->
          if not (Hashtbl.mem order gid) then sequence := gid :: !sequence;
          let existing = Option.value (Hashtbl.find_opt order gid) ~default:[] in
          Hashtbl.replace order gid (node :: existing)
      | Fusion.No_cost -> ());
  List.rev_map (fun gid -> (gid, List.rev (Hashtbl.find order gid))) !sequence

let kernel_of plan shapes idx (gid, members) =
  let ctx =
    { shapes; plan; gid; counter = ref 0; unit_vars = Hashtbl.create 8 }
  in
  let emits_stmt (n : Graph.node) =
    match n.n_op with
    | Op.Access _ | Op.View _ | Op.Constant _ | Op.Scalar_binary _ ->
        List.exists (Fusion.value_escapes plan) n.n_outputs
    | _ -> true
  in
  let stmts =
    List.concat_map
      (fun (n : Graph.node) ->
        if not (emits_stmt n) then []
        else
          List.map
            (fun (out : Graph.value) ->
              let rank = Option.value (rank_of shapes out) ~default:0 in
              let index =
                List.init rank (fun i -> Ivar (Printf.sprintf "i%d" i))
              in
              Hashtbl.reset ctx.unit_vars;
              (match dims_of shapes out with
              | Some dims ->
                  Array.iteri
                    (fun i d ->
                      if d = Shape_infer.Known 1 then
                        Hashtbl.replace ctx.unit_vars
                          (Printf.sprintf "i%d" i) ())
                    dims
              | None -> ());
              {
                s_out = out;
                s_rank = rank;
                s_store = Fusion.value_escapes plan out;
                s_expr = node_expr ctx n index;
              })
            n.n_outputs)
      members
  in
  (* external tensor inputs referenced by any statement *)
  let inputs = ref [] in
  let local : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace local s.s_out.Graph.v_id ()) stmts;
  let rec note = function
    | Cread (v, _) ->
        if
          Dtype.equal v.Graph.v_type Dtype.Tensor
          && (not (Hashtbl.mem local v.Graph.v_id))
          && not (List.exists (fun (_, x) -> x == v) !inputs)
        then inputs := (value_ref v, v) :: !inputs
    | Clit _ | Copaque _ -> ()
    | Cmatmul (a, b) ->
        note (Cread (a, []));
        note (Cread (b, []))
    | Cunary (_, e) -> note e
    | Cbinary (_, a, b) ->
        note a;
        note b
    | Ccond (_, a, b) ->
        note a;
        note b
    | Cwhere (c, a, b) ->
        note c;
        note a;
        note b
    | Creduce (_, _, _, e) -> note e
  in
  List.iter (fun s -> note s.s_expr) stmts;
  let outputs = List.filter (fun s -> s.s_store) stmts in
  {
    k_name = Printf.sprintf "fused_%d" idx;
    k_group = gid;
    k_inputs = List.rev !inputs;
    k_outputs = List.map (fun s -> (value_ref s.s_out, s.s_out)) outputs;
    k_stmts = stmts;
  }

let emit g plan ~shapes =
  group_members g plan |> List.mapi (fun i gm -> kernel_of plan shapes i gm)

(* --- rendering --- *)

let rec cexpr_to_string = function
  | Cread (v, index) ->
      value_ref v
      ^
      if index = [] then ""
      else "[" ^ String.concat ", " (List.map ix_to_string index) ^ "]"
  | Clit f -> Printf.sprintf "%g" f
  | Cunary (u, e) ->
      Printf.sprintf "%s(%s)" (Scalar.unary_name u) (cexpr_to_string e)
  | Cbinary (b, x, y) ->
      let sym =
        match b with
        | Scalar.Add -> "+"
        | Scalar.Sub -> "-"
        | Scalar.Mul -> "*"
        | Scalar.Div -> "/"
        | Scalar.Pow -> "**"
        | Scalar.Max -> "`max`"
        | Scalar.Min -> "`min`"
        | Scalar.Lt -> "<"
        | Scalar.Gt -> ">"
        | Scalar.Eq -> "=="
      in
      Printf.sprintf "(%s %s %s)" (cexpr_to_string x) sym (cexpr_to_string y)
  | Ccond (conds, t, e) ->
      Printf.sprintf "((%s) ? %s : %s)"
        (String.concat " && " (List.map cond_to_string conds))
        (cexpr_to_string t) (cexpr_to_string e)
  | Cwhere (c, a, b) ->
      Printf.sprintf "where(%s, %s, %s)" (cexpr_to_string c) (cexpr_to_string a)
        (cexpr_to_string b)
  | Creduce (kind, r, extent, body) ->
      Printf.sprintf "reduce_%s(%s < %d, %s)"
        (match kind with `Sum -> "sum" | `Max -> "max")
        r extent (cexpr_to_string body)
  | Cmatmul (a, b) -> Printf.sprintf "matmul(%s, %s)" (value_ref a) (value_ref b)
  | Copaque s -> s

let shape_str shapes v =
  match Shape_infer.shape_of shapes v with
  | Some s -> Shape_infer.to_string s
  | None -> "[?]"

let render k ~shapes =
  let param (name, v) = Printf.sprintf "%s: %s" name (shape_str shapes v) in
  let line s =
    let index = List.init s.s_rank (fun i -> Printf.sprintf "i%d" i) in
    let lhs =
      value_ref s.s_out
      ^ if index = [] then "" else "[" ^ String.concat ", " index ^ "]"
    in
    Printf.sprintf "  %s%s = %s"
      (if s.s_store then "store " else "")
      lhs (cexpr_to_string s.s_expr)
  in
  Printf.sprintf "kernel %s(%s) -> (%s):\n%s" k.k_name
    (String.concat ", " (List.map param k.k_inputs))
    (String.concat ", " (List.map param k.k_outputs))
    (String.concat "\n" (List.map line k.k_stmts))

let render_all g plan ~shapes =
  emit g plan ~shapes |> List.map (render ~shapes) |> String.concat "\n\n"

(* --- evaluation --- *)

exception Not_executable of string

let rec eval_ix env = function
  | Iconst c -> c
  | Ivar s -> begin
      match env s with
      | Some v -> v
      | None ->
          raise (Not_executable (Printf.sprintf "unbound index symbol %s" s))
    end
  | Iadd (a, b) -> eval_ix env a + eval_ix env b
  | Isub (a, b) -> eval_ix env a - eval_ix env b

let eval_cond env = function
  | Ceq (a, b) -> eval_ix env a = eval_ix env b
  | Cge (a, b) -> eval_ix env a >= eval_ix env b
  | Clt (a, b) -> eval_ix env a < eval_ix env b
  | Cmod (a, b, s) -> (eval_ix env a - eval_ix env b) mod s = 0

let eval_kernel k ~shapes ~lookup ~scalar =
  let locals : (int, Tensor.t) Hashtbl.t = Hashtbl.create 16 in
  let find_tensor (v : Graph.value) =
    match Hashtbl.find_opt locals v.v_id with
    | Some t -> Some t
    | None -> lookup v
  in
  let results = ref [] in
  List.iter
    (fun s ->
      let shape =
        match
          Option.bind (Shape_infer.shape_of shapes s.s_out) Shape_infer.concrete
        with
        | Some dims -> dims
        | None ->
            raise
              (Not_executable
                 (Printf.sprintf "unknown shape for %s" (value_ref s.s_out)))
      in
      let out = Tensor.zeros shape in
      Shape.iter_indices shape (fun index ->
          let env name =
            if String.length name > 1 && name.[0] = 'i' then begin
              match
                int_of_string_opt (String.sub name 1 (String.length name - 1))
              with
              | Some d when d < Array.length index -> Some index.(d)
              | _ -> scalar name
            end
            else scalar name
          in
          let rec eval env (e : cexpr) =
            match e with
            | Clit f -> f
            | Copaque what -> raise (Not_executable what)
            | Cunary (u, e) -> Scalar.apply_unary u (eval env e)
            | Cbinary (b, x, y) ->
                Scalar.apply_binary b (eval env x) (eval env y)
            | Ccond (conds, t, e) ->
                if List.for_all (eval_cond env) conds then eval env t
                else eval env e
            | Cwhere (c, a, b) ->
                let c = eval env c and a = eval env a and b = eval env b in
                if c <> 0.0 then a else b
            | Creduce (kind, r, extent, body) ->
                if extent <= 0 then
                  raise (Not_executable "reduction with unknown extent");
                let init =
                  match kind with `Sum -> 0.0 | `Max -> Float.neg_infinity
                in
                let combine =
                  match kind with `Sum -> ( +. ) | `Max -> Float.max
                in
                let acc = ref init in
                for rv = 0 to extent - 1 do
                  let env' name = if name = r then Some rv else env name in
                  acc := combine !acc (eval env' body)
                done;
                !acc
            | Cmatmul (a, b) ->
                (* the interpreter's sum: from +0.0, ascending l *)
                let tensor v =
                  match find_tensor v with
                  | Some t -> t
                  | None ->
                      raise
                        (Not_executable
                           (Printf.sprintf "unbound tensor %s" (value_ref v)))
                in
                let ta = tensor a and tb = tensor b in
                let acc = ref 0.0 in
                for l = 0 to ta.Tensor.shape.(1) - 1 do
                  acc :=
                    !acc
                    +. Tensor.get ta [| index.(0); l |]
                       *. Tensor.get tb [| l; index.(1) |]
                done;
                !acc
            | Cread (v, ixs) -> begin
                match find_tensor v with
                | None ->
                    raise
                      (Not_executable
                         (Printf.sprintf "unbound tensor %s" (value_ref v)))
                | Some t ->
                    let concrete = Array.of_list (List.map (eval_ix env) ixs) in
                    Tensor.get t concrete
              end
          in
          Tensor.set out index (eval env s.s_expr));
      Hashtbl.replace locals s.s_out.Graph.v_id out;
      results := (s.s_out, out) :: !results)
    k.k_stmts;
  List.rev !results
