open Functs_ir
module Scalar = Functs_tensor.Scalar

(* Affine form [a·i + b] of a scalar value in the induction variable. *)
type affine = { a : int; b : int }

type operand = { o_v : Graph.value; o_aff : affine option }

(* One component of a subscript path, in analyzable form. *)
type comp =
  | Csel of { dim : int; idx : operand }
  | Cslice of { dim : int; step : int; lo : operand; hi : operand }
  | Copaque

type step = { st_kind : Op.view_kind; st_ops : Graph.value list }

type write = {
  w_slot : int;
  w_steps : step list;
  w_leaf : step;
  w_src : Graph.value;
}

type role =
  | Sliced
  | Reduced of {
      op : Functs_tensor.Scalar.binary;
      acc_pos : int;
      combine : Graph.node;
    }
  | Passthrough

type info = {
  roles : role array;
  writes : (int, write) Hashtbl.t;
  skips : (int, unit) Hashtbl.t;
}

type verdict =
  | Parallel of info
  | Reduction of Functs_tensor.Scalar.binary * info
  | Sequential of string

(* An in-body alias of a carried tensor: the slot it descends from, the
   component path from the carried value down to the alias, and the
   slot's write count at the alias's birth (stale aliases — created
   before a later write — must never be read). *)
type alias = { al_slot : int; al_comps : comp list; al_born : int }

(* A data read of a carried slot: confinement is checked against the
   slot's write witness, staleness against the write counts. *)
type read_ev = {
  r_slot : int;
  r_comps : comp list;
  r_born : int;
  r_at : int;
  mutable r_exempt : bool;
}

(* A version-creating write (an [immut::assign] whose base is the
   current version of a carried slot). *)
type write_ev = {
  we_node : Graph.node;
  we_slot : int;
  we_kind : Op.view_kind;
  we_ops : Graph.value list;
  we_src : Graph.value;
}

exception Reject of string

let reject fmt = Format.kasprintf (fun m -> raise (Reject m)) fmt

let analyze g (node : Graph.node) (body : Graph.block) =
  let i_param, carried =
    match body.Graph.b_params with
    | i :: rest -> (i, Array.of_list rest)
    | [] -> reject "loop body without an induction parameter"
  in
  let nslots = Array.length carried in
  if nslots = 0 then reject "no carried values";
  Array.iter
    (fun (p : Graph.value) ->
      if not (Dtype.equal p.v_type Dtype.Tensor) then
        reject "non-tensor carried value %%%s" p.v_name)
    carried;
  if List.length body.b_returns <> nslots then
    reject "carried arity mismatch between params and returns";
  if List.length node.n_inputs <> nslots + 1 then
    reject "loop input arity mismatch";
  (* --- affine index expressions --- *)
  let aff_memo : (int, affine option) Hashtbl.t = Hashtbl.create 16 in
  let rec affine_of (v : Graph.value) =
    if v == i_param then Some { a = 1; b = 0 }
    else
      match Hashtbl.find_opt aff_memo v.v_id with
      | Some r -> r
      | None ->
          (* conservative placeholder also guards against cycles *)
          Hashtbl.add aff_memo v.v_id None;
          let r =
            match v.v_origin with
            | Graph.Def (n, _) -> (
                match (n.n_op, n.n_inputs) with
                | Op.Constant (Op.Cint k), _ -> Some { a = 0; b = k }
                | Op.Scalar_binary op, [ x; y ] -> (
                    match (affine_of x, affine_of y) with
                    | Some fx, Some fy -> (
                        match op with
                        | Scalar.Add -> Some { a = fx.a + fy.a; b = fx.b + fy.b }
                        | Scalar.Sub -> Some { a = fx.a - fy.a; b = fx.b - fy.b }
                        | Scalar.Mul when fx.a = 0 || fy.a = 0 ->
                            Some
                              {
                                a = (fx.a * fy.b) + (fy.a * fx.b);
                                b = fx.b * fy.b;
                              }
                        | _ -> None)
                    | _ -> None)
                | _ -> None)
            | Graph.Param _ | Graph.Detached -> None
          in
          Hashtbl.replace aff_memo v.v_id r;
          r
  in
  let operand v = { o_v = v; o_aff = affine_of v } in
  let comp_of kind ops =
    match (kind, ops) with
    | Op.Select { dim }, [ idx ] -> Csel { dim; idx = operand idx }
    | Op.Slice { dim; step }, [ lo; hi ] ->
        Cslice { dim; step; lo = operand lo; hi = operand hi }
    | _ -> Copaque
  in
  let operand_equal o1 o2 =
    o1.o_v == o2.o_v
    ||
    match (o1.o_aff, o2.o_aff) with
    | Some f1, Some f2 -> f1.a = f2.a && f1.b = f2.b
    | _ -> false
  in
  let comp_equal c1 c2 =
    match (c1, c2) with
    | Csel s1, Csel s2 -> s1.dim = s2.dim && operand_equal s1.idx s2.idx
    | Cslice s1, Cslice s2 ->
        s1.dim = s2.dim && s1.step = s2.step
        && operand_equal s1.lo s2.lo
        && operand_equal s1.hi s2.hi
    | _ -> false
  in
  let comps_equal l1 l2 =
    List.length l1 = List.length l2 && List.for_all2 comp_equal l1 l2
  in
  let aff_involves = function Some { a; _ } -> a <> 0 | None -> false in
  let involves_i = function
    | Csel { idx; _ } -> aff_involves idx.o_aff
    | Cslice { lo; hi; _ } -> aff_involves lo.o_aff || aff_involves hi.o_aff
    | Copaque -> false
  in
  (* Distinct iterations provably hit disjoint index sets through this
     component.  Only non-negative affine indices qualify: the evaluator
     has no negative-index wraparound, so [a ≥ 1, b ≥ 0] keeps every
     iteration's region distinct and in bounds (bounds themselves are the
     program's own obligation). *)
  let disjoint_by_i = function
    | Csel { idx = { o_aff = Some { a; b }; _ }; _ } -> a >= 1 && b >= 0
    | Cslice
        { step; lo = { o_aff = Some la; _ }; hi = { o_aff = Some ha; _ }; _ }
      ->
        step = 1 && la.a = ha.a && la.a >= 1 && la.b >= 0
        && ha.b - la.b > 0
        && ha.b - la.b <= la.a
    | _ -> false
  in
  (* --- forward walk: versions, aliases, reads, writes --- *)
  let versions : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let latest = Array.copy carried in
  Array.iteri (fun j (p : Graph.value) -> Hashtbl.replace versions p.v_id j) carried;
  let wc = Array.make nslots 0 in
  let aliases : (int, alias) Hashtbl.t = Hashtbl.create 32 in
  let reads = ref [] in
  let pending : (int, read_ev) Hashtbl.t = Hashtbl.create 8 in
  let writes = ref [] in
  let version_of (v : Graph.value) = Hashtbl.find_opt versions v.v_id in
  let alias_of (v : Graph.value) = Hashtbl.find_opt aliases v.v_id in
  let read_value what (v : Graph.value) =
    match version_of v with
    | Some j ->
        if not (v == latest.(j)) then
          reject "%s reads a superseded version of carried slot %d" what j;
        reads :=
          { r_slot = j; r_comps = []; r_born = wc.(j); r_at = wc.(j); r_exempt = false }
          :: !reads
    | None -> (
        match alias_of v with
        | Some al ->
            reads :=
              {
                r_slot = al.al_slot;
                r_comps = al.al_comps;
                r_born = al.al_born;
                r_at = wc.(al.al_slot);
                r_exempt = false;
              }
              :: !reads
        | None -> ())
  in
  let mk_alias out slot comps born =
    Hashtbl.replace aliases out.Graph.v_id
      { al_slot = slot; al_comps = comps; al_born = born }
  in
  List.iter
    (fun (n : Graph.node) ->
      if n.n_blocks <> [] then
        reject "nested control flow (%s)" (Op.name n.n_op);
      match (n.n_op, n.n_inputs, n.n_outputs) with
      | (Op.If | Op.Loop), _, _ -> reject "nested control flow"
      | Op.Mutate _, _, _ -> reject "in-place mutation in loop body"
      | Op.Update, _, _ -> reject "unresolved tssa::update in loop body"
      | Op.Access kind, base :: ops, [ out ] -> begin
          match version_of base with
          | Some j ->
              if not (base == latest.(j)) then
                reject "access through a superseded version of carried slot %d" j;
              mk_alias out j [ comp_of kind ops ] wc.(j)
          | None -> (
              match alias_of base with
              | Some al ->
                  mk_alias out al.al_slot
                    (al.al_comps @ [ comp_of kind ops ])
                    al.al_born
              | None -> ())
        end
      | Op.View _, base :: _, [ out ] -> begin
          (* an aliasing view of a carried tensor: opaque path component *)
          match version_of base with
          | Some j ->
              if not (base == latest.(j)) then
                reject "view of a superseded version of carried slot %d" j;
              mk_alias out j [ Copaque ] wc.(j)
          | None -> (
              match alias_of base with
              | Some al -> mk_alias out al.al_slot (al.al_comps @ [ Copaque ]) al.al_born
              | None -> ())
        end
      | Op.Assign kind, base :: src :: ops, [ out ] -> begin
          read_value "immut::assign source" src;
          match version_of base with
          | Some j ->
              if not (base == latest.(j)) then
                reject "write through a superseded version of carried slot %d" j;
              writes :=
                { we_node = n; we_slot = j; we_kind = kind; we_ops = ops; we_src = src }
                :: !writes;
              wc.(j) <- wc.(j) + 1;
              latest.(j) <- out;
              Hashtbl.replace versions out.v_id j
          | None -> (
              match alias_of base with
              | Some al ->
                  (* A copy-producing assign through an alias reads the
                     aliased region; if it turns out to be a rebuild-chain
                     member the read is subsumed by the outer write and
                     exempted below. *)
                  let ev =
                    {
                      r_slot = al.al_slot;
                      r_comps = al.al_comps;
                      r_born = al.al_born;
                      r_at = wc.(al.al_slot);
                      r_exempt = false;
                    }
                  in
                  Hashtbl.replace pending n.n_id ev;
                  reads := ev :: !reads
              | None -> ())
        end
      | _, inputs, _ -> List.iter (read_value (Op.name n.n_op)) inputs)
    body.b_nodes;
  let writes = List.rev !writes in
  (* --- rebuild-chain recognition ---
     Functionalization lowers [x[a][b][c] = e] to a ladder
       y2 = assign_c(x2, e); y1 = assign_b(x1, y2); y0 = assign_a(x0, y1)
     mirroring the access chain x1 = access_a(x0), x2 = access_b(x1).
     Recognize the ladder from the outermost (version-creating) assign so
     the executor can replay it as one in-place leaf write; the inner
     assigns' base reads are the write itself, not data reads. *)
  let skips : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let wtbl : (int, write) Hashtbl.t = Hashtbl.create 8 in
  let full_paths : (int, comp list) Hashtbl.t = Hashtbl.create 8 in
  let single_use (v : Graph.value) =
    match Graph.uses_in g v with [ _ ] -> true | _ -> false
  in
  List.iter
    (fun we ->
      let rec descend path steps (src : Graph.value) =
        match Graph.defining_node src with
        | Some a -> (
            match (a.n_op, a.n_inputs) with
            | Op.Assign k', base' :: src' :: ops'
              when single_use src
                   && (match alias_of base' with
                      | Some al ->
                          al.al_slot = we.we_slot
                          && comps_equal al.al_comps path
                      | None -> false) ->
                Hashtbl.replace skips a.n_id ();
                (match Hashtbl.find_opt pending a.n_id with
                | Some ev -> ev.r_exempt <- true
                | None -> ());
                descend
                  (path @ [ comp_of k' ops' ])
                  (steps @ [ { st_kind = k'; st_ops = ops' } ])
                  src'
            | _ -> (path, steps, src))
        | None -> (path, steps, src)
      in
      let path, steps, leaf_src =
        descend
          [ comp_of we.we_kind we.we_ops ]
          [ { st_kind = we.we_kind; st_ops = we.we_ops } ]
          we.we_src
      in
      let rec split = function
        | [] -> assert false
        | [ leaf ] -> ([], leaf)
        | s :: rest ->
            let pre, leaf = split rest in
            (s :: pre, leaf)
      in
      let w_steps, w_leaf = split steps in
      Hashtbl.replace wtbl we.we_node.n_id
        { w_slot = we.we_slot; w_steps; w_leaf; w_src = leaf_src };
      Hashtbl.replace full_paths we.we_node.n_id path)
    writes;
  (* --- staleness: no surviving read through a pre-write alias --- *)
  List.iter
    (fun r ->
      if (not r.r_exempt) && r.r_born <> r.r_at then
        reject "stale read of carried slot %d (alias predates a write)" r.r_slot)
    !reads;
  (* --- per-slot roles --- *)
  let find_witness path =
    let rec go prefix_ok = function
      | [] -> None
      | c :: rest ->
          if prefix_ok && involves_i c && disjoint_by_i c then Some c
          else
            go
              (prefix_ok && match c with Cslice _ -> true | _ -> false)
              rest
    in
    go true path
  in
  let read_confined witness comps =
    let rec go prefix_ok = function
      | [] -> false
      | c :: rest ->
          (prefix_ok && comp_equal c witness)
          || go (prefix_ok && match c with Cslice _ -> true | _ -> false) rest
    in
    go true comps
  in
  let rets = Array.of_list body.b_returns in
  let roles =
    Array.mapi
      (fun j (param : Graph.value) ->
        let ret = rets.(j) in
        if wc.(j) > 0 then begin
          (match version_of ret with
          | Some k when k = j ->
              if not (ret == latest.(j)) then
                reject "carried slot %d returns a superseded version" j
          | Some k -> reject "carried slot %d returns slot %d (crossed slots)" j k
          | None -> reject "carried slot %d does not return its own final version" j);
          let slot_writes = List.filter (fun we -> we.we_slot = j) writes in
          let witness_of we =
            match find_witness (Hashtbl.find full_paths we.we_node.n_id) with
            | Some w -> w
            | None ->
                reject
                  "carried slot %d write is not provably disjoint across \
                   iterations"
                  j
          in
          let witness = witness_of (List.hd slot_writes) in
          List.iter
            (fun we ->
              if not (comp_equal (witness_of we) witness) then
                reject "carried slot %d writes partition along different components" j)
            slot_writes;
          List.iter
            (fun (r : read_ev) ->
              if
                (not r.r_exempt) && r.r_slot = j
                && not (read_confined witness r.r_comps)
              then reject "carried slot %d read may overlap other iterations' writes" j)
            !reads;
          Sliced
        end
        else
          match version_of ret with
          | Some k when k <> j ->
              reject "carried slot %d returns slot %d (crossed slots)" j k
          | _ ->
              if ret == param then Passthrough
              else begin
                match Graph.defining_node ret with
                | Some cn -> (
                    match (cn.n_op, cn.n_inputs) with
                    | Op.Binary op, [ x; y ]
                      when (x == param || y == param)
                           && (match op with
                              | Scalar.Add | Scalar.Mul | Scalar.Max
                              | Scalar.Min ->
                                  true
                              | _ -> false) ->
                        let acc_pos = if x == param then 0 else 1 in
                        (match Graph.uses_in g param with
                        | [ Graph.Input (n', k) ] when n' == cn && k = acc_pos
                          ->
                            ()
                        | _ ->
                            reject
                              "carried slot %d accumulator is used outside \
                               its combine"
                              j);
                        (match Graph.uses_in g ret with
                        | [ Graph.Return (b, k) ] when b == body && k = j -> ()
                        | _ ->
                            reject
                              "carried slot %d reduction result leaks out of \
                               the return"
                              j);
                        Reduced { op; acc_pos; combine = cn }
                    | Op.Binary op, _ ->
                        reject
                          "carried slot %d accumulates through \
                           non-associative aten::%s"
                          j (Scalar.binary_name op)
                    | _ ->
                        reject
                          "carried slot %d is recomputed from itself each \
                           iteration"
                          j)
                | None ->
                    reject
                      "carried slot %d is recomputed from itself each iteration"
                      j
              end)
      carried
  in
  let info = { roles; writes = wtbl; skips } in
  let red =
    Array.fold_left
      (fun acc r ->
        match (acc, r) with
        | None, Reduced { op; _ } -> Some op
        | acc, _ -> acc)
      None roles
  in
  match red with
  | Some op -> Reduction (op, info)
  | None ->
      if Array.exists (function Sliced -> true | _ -> false) roles then
        Parallel info
      else reject "no per-iteration writes or reductions to partition"

let classify (g : Graph.t) (node : Graph.node) : verdict =
  try
    match node.n_blocks with
    | [ body ] -> analyze g node body
    | _ -> Sequential "malformed prim::Loop"
  with Reject m -> Sequential m

let reason = function Sequential m -> Some m | Parallel _ | Reduction _ -> None
