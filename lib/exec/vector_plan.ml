open Functs_ir
open Functs_tensor
open Functs_interp
open Frame
open Loop_plan

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

type t = {
  vp_acts : vact array;  (* aligned with the body's bi_insts *)
  vp_vec : (int, unit) Hashtbl.t;  (* slots holding vector values *)
}

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

(* The vectorised plan of a Parallel loop body, or [None] when the body
   does not qualify: the induction variable [i] appears only as the
   index of a [select] (of an invariant base) or of one select on each
   write path; every iteration-dependent value comes from
   select/slice/identity views or engine ops; there is no copy-producing
   assign, and no iteration-dependent value is returned.  An engine op
   whose only consumer is the next write computes straight into that
   write's region ([V_op w]) when nothing but views runs in between. *)
let plan (bi : binst) (lp : Loop_plan.t) =
  let actions = lp.lp_actions in
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
          | L_assign _ -> raise Reject
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

(* The vectorised arm.  Pass 1 runs the iteration-invariant actions
   once; then every induction select and every write region is built,
   which bounds-checks the trip before anything is written (a trip past
   an extent returns [false]: the caller runs the batched arm, which
   fails where the sequential loop would); pass 2 runs the
   iteration-dependent actions in body order.  Reordering invariants
   ahead of writes is sound: {!Loop_par} only lets a carried slot be
   read through the iteration's own induction select, so no invariant
   reads data a write changes.  Scratch comes from the storage pool and
   goes back at the end — writes copy into the shared buffers. *)
let exec rs (bi : binst) (lp : Loop_plan.t) vp trip inits bufs =
  let exception Bail in
  let par = rs.par in
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
    let t = Buffer_plan.alloc rs.pool shape in
    scratch := t :: !scratch;
    t
  in
  let release () = List.iter (Buffer_plan.release rs.pool) !scratch in
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
        vals.(slot) <-
          Some (if lp.lp_sliced.(j) then Value.Tensor (buf j) else inits.(j)))
      (Array.sub bi.bi_params 1 (Array.length lp.lp_sliced));
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
              (Fastops.apply_op ~alloc:pooled ?par b.i_node (operands b 0))
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
        | Op.Unary fn, [| a |] -> Fastops.unary_into ?par dst fn a
        | Op.Binary fn, [| a; c |] -> Fastops.binary_into ?par dst fn a c
        | Op.Where, [| c; a; e |] -> Fastops.where_into ?par dst c a e
        | Op.Clone, [| a |] -> Fastops.copy_into ?par dst a
        | _ -> error "vector loop: %s is no engine op" (Op.name b.i_node.n_op));
        dst
      in
      let write k (w : lwrite) =
        let reg = region_at k in
        let src = tensor w.wr_src and v = is_vec w.wr_src in
        let rank = Tensor.ndim reg - 1 in
        if Tensor.ndim src - Bool.to_int v <= rank then
          Fastops.copy_into ?par reg (if v then align src rank else src)
        else
          (* rank-dropping one-element writes: per iteration, as the
             sequential loop does *)
          for i = 0 to trip - 1 do
            write_region ?par
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
