open Functs_ir
open Functs_tensor
open Functs_core
open Functs_interp
open Frame
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics
module Journal = Functs_obs.Journal
module Jit = Functs_jit.Jit

(* Process-wide observability counters (per-engine numbers live on
   [prepared] below; these aggregate across every engine in the process
   for `functs stats` / FUNCTS_METRICS). *)
let prepares_c = Metrics.counter "exec.prepares"
let runs_c = Metrics.counter "exec.runs"
let kernel_runs_c = Metrics.counter "exec.kernel_runs"
let parallel_loops_c = Metrics.counter "exec.parallel_loops"

(* Runtime demotions of a group or loop kernel on a launch-validation
   failure. *)
let jit_demoted_c = Metrics.counter "jit.demoted"

(* A group runs its native kernel ([`Cjit]) once one is armed and node
   by node ([`Per_node]) otherwise.

   A loop site runs one arm, fixed by a rule when the site is made:
   - [`Native]: a [Sequential] loop whose whole body compiled to one
     loop kernel (one launch per run), until a launch fails validation;
   - [`Batched]: a [Parallel] loop's vectorised plan when the body has
     one, else — or when that plan bails — its chunked plan, whose
     chunks the pool fans out across lanes or runs on the caller;
   - [`Seq]: a [Reduction] loop (and any site after a demotion): the
     sequential body, which keeps kernel fusion and donation.
   Nothing is measured to choose; only {!force} overrides the rule. *)
type garm = [ `Cjit | `Per_node ]
type larm = [ `Native | `Batched | `Seq ]
type arm = [ garm | larm ]
type site = [ `Group | `Loop ] * int

let arm_name : [< arm ] -> string = function
  | `Cjit -> "c-jit"
  | `Per_node -> "per_node"
  | `Batched -> "batched"
  | `Seq -> "seq"
  | `Native -> "native"

let site_kind = function `Group -> "group" | `Loop -> "loop"

(* Per-group dispatch state, held in a dense gid-indexed array on the
   prepared engine.  Sequential loop bodies touch every member
   instruction once per iteration, so this must be one array load away:
   the per-member hashtable probes (compiled? last member? mode?) this
   replaces were a measurable slice of loop-bound workloads (seq2seq
   walks ~50 member instructions × 128 iterations per run). *)
type group = {
  g_members : inst list;  (* in plan order *)
  mutable g_jit : [ `Unarmed | `Armed of Jit.entry | `Demoted ];
      (* the native launcher once {!arm} gives it one; [`Demoted] for
         good on the first launch-time validation failure or a forced
         [per_node] *)
  mutable g_time : float;  (* accumulated launch wall time (attribution) *)
  mutable g_launches : int;
}

let group_arm g = match g.g_jit with `Armed _ -> `Cjit | _ -> `Per_node

(* A loop site: its plans (plain data), its loop kernel, and the arm
   the rule gave it. *)
type loop = {
  l_batch : (Loop_plan.t * Vector_plan.t option) option;
      (* iteration-batching plans of a Parallel loop *)
  mutable l_jit : (Jit.loop * bool array) option;
      (* a Sequential loop's kernel and, per carried slot,
         {!Loop_plan.donatable}; cleared on a failed launch *)
  mutable l_arm : larm;
  mutable l_time : float;  (* accumulated launch wall time (attribution) *)
  mutable l_launches : int;
  l_members : int;  (* body size, for attribution *)
  l_ops : string list;  (* the body's op names, for attribution *)
}

(* Distinct op names of [nodes] without their namespace, in order of
   first appearance ("matmul", "sigmoid", ...); constants are left out. *)
let op_names (nodes : Graph.node list) =
  List.fold_left
    (fun acc (n : Graph.node) ->
      let s = Op.name n.Graph.n_op in
      let s =
        match String.rindex_opt s ':' with
        | Some i -> String.sub s (i + 1) (String.length s - i - 1)
        | None -> s
      in
      match n.Graph.n_op with
      | Op.Constant _ -> acc
      | _ -> if List.mem s acc then acc else s :: acc)
    [] nodes
  |> List.rev

(* The rule: a loop kernel runs [`Native], a batching plan [`Batched],
   anything else (a [Reduction] loop) [`Seq].  Journaled once per site
   as a [Tuner_pin] whose detail names the rule. *)
let loop_site (node : Graph.node) ~members ~batch ~jit =
  let arm, rule =
    match (jit, batch) with
    | Some _, _ -> (`Native, "loop-kernel")
    | None, Some (_, Some _) -> (`Batched, "vector-plan")
    | None, Some (_, None) -> (`Batched, "chunked-plan")
    | None, None -> (`Seq, "reduction")
  in
  Journal.record Tuner_pin "scheduler.loop" ~id:node.Graph.n_id
    ~arm:(arm_name arm) ~detail:("rule=" ^ rule);
  {
    l_batch = batch;
    l_jit = jit;
    l_arm = arm;
    l_time = 0.;
    l_launches = 0;
    l_members = members;
    l_ops = op_names (List.hd node.Graph.n_blocks).Graph.b_nodes;
  }

type prepared = {
  p_graph : Graph.t;
  p_plan : Fusion.plan;
  p_out_shapes : Shape_infer.shape option list;
      (* statically inferred shapes of the graph's return values, kept so
         serving-layer batching can check which output axis carries the
         request dimension without re-running inference *)
  p_nslots : int;
  p_consts : inst array;
      (* every [prim::Constant] of the graph, bound once per run instead of
         per iteration; their slots are pinned *)
  p_uses : int array;  (* per slot: consuming edges in the defining block *)
  p_pinned : bool array;  (* per slot: never release or donate *)
  p_blocks : (int, binst) Hashtbl.t;  (* block id -> instructions *)
  p_loops : (int, loop) Hashtbl.t;
      (* loop node id -> site: Parallel/Reduction loops with a plan from
         prepare, Sequential ones once {!arm} gives them a loop kernel *)
  p_slot : (int, int) Hashtbl.t;  (* value id -> slot (kernel-site lookup) *)
  p_groups : group option array;
      (* gid -> dispatch record, [None] for gids without registered
         member instructions *)
  p_in_shapes : Shape_infer.shape option list;
      (* per graph parameter: the shape the engine was prepared for.
         Native kernels bake these shapes in, so [run] rejects tensors of
         any other shape. *)
  p_scalar_slots : (string, int) Hashtbl.t;  (* kernel symbol -> slot *)
  p_live : bool;  (* mutation-free: pool / donation / kernels active *)
  p_parallel : bool;
  p_pool : Buffer_plan.pool;
  p_exec_pool : Pool.t;  (* persistent domain pool shared by all dispatches *)
  p_loop_grain : int;  (* minimum trip count before a loop runs batched *)
  p_kernel_grain : int;  (* elements per chunk for intra-kernel splits *)
  p_counts : Frame.counts;
}

(* --- compiled group execution --- *)

let slot_of p (v : Graph.value) = Hashtbl.find_opt p.p_slot v.Graph.v_id

let scalar_lookup p rs name =
  match Hashtbl.find_opt p.p_scalar_slots name with
  | None -> None
  | Some slot -> (
      match rs.vals.(slot) with
      | Some (Value.Int i) -> Some i
      | Some (Value.Bool b) -> Some (if b then 1 else 0)
      | _ -> None)

let tensor_lookup p rs (v : Graph.value) =
  match slot_of p v with
  | None -> None
  | Some slot -> (
      match rs.vals.(slot) with Some (Value.Tensor t) -> Some t | _ -> None)

let bind_group_results p rs scope gid members results =
  if Tracer.enabled () then
    Tracer.instant "kernel.outputs"
      ~args:
        [
          ("group", string_of_int gid);
          ( "elements",
            string_of_int
              (List.fold_left
                 (fun acc (_, t, _) -> acc + Tensor.numel t)
                 0 results) );
        ];
  List.iter
    (fun ((v : Graph.value), t, stored) ->
      if stored then
        match slot_of p v with
        | Some slot -> bind rs scope slot (Value.Tensor t)
        | None -> error "kernel output %s has no frame slot" v.Graph.v_name
      else Buffer_plan.release p.p_pool t)
    results;
  (* Sweep every member's input edges so external values retire. *)
  List.iter (fun (m : inst) -> consume_all rs m.i_in) members

(* One native launch of a group or loop kernel at [site]:
   [launch ~alloc ~track] with every buffer it takes from the storage
   pool ([alloc], or [track] for one taken another way) released if it
   raises.  [None] when it failed launch-time validation (rank/extent
   mismatch, out-of-range dynamic index): that demotes the site for
   good — [clear] drops its kernel — and the caller reruns the same
   launch per node (a group) or on [seq] (a loop), so a JIT fallback is
   never user-visible. *)
let native_launch p ((kind, id) : site) ~clear launch =
  let allocated = ref [] in
  let track t =
    allocated := t :: !allocated;
    t
  in
  let alloc shape = track (Buffer_plan.alloc p.p_pool shape) in
  match launch ~alloc ~track with
  | r ->
      p.p_counts.cjit_runs <- p.p_counts.cjit_runs + 1;
      Metrics.incr kernel_runs_c;
      Some r
  | exception Jit.Fallback reason ->
      List.iter (Buffer_plan.release p.p_pool) !allocated;
      clear ();
      p.p_counts.jit_fallbacks <- p.p_counts.jit_fallbacks + 1;
      Metrics.incr jit_demoted_c;
      let kind = site_kind kind in
      Tracer.instant "jit.fallback"
        ~args:[ (kind, string_of_int id); ("reason", reason) ];
      Journal.record Jit_demote ("scheduler." ^ kind) ~id
        ~arm:(if kind = "group" then "per_node" else "seq")
        ~detail:("launch validation failed: " ^ reason);
      None
  | exception e ->
      List.iter (Buffer_plan.release p.p_pool) !allocated;
      raise e

let run_group_jit p rs scope gid g entry =
  let par =
    if p.p_parallel then
      Some
        (fun ~grain ~bytes_per_iter ~n body ->
          ignore
            (Pool.parallel_for p.p_exec_pool ~bytes_per_iter ~grain ~n body))
    else None
  in
  match
    native_launch p (`Group, gid) ~clear:(fun () -> g.g_jit <- `Demoted)
      (fun ~alloc ~track:_ ->
        Jit.run ?par ~grain:p.p_kernel_grain entry ~alloc
          ~lookup:(tensor_lookup p rs) ~scalar:(scalar_lookup p rs))
  with
  | Some results ->
      bind_group_results p rs scope gid g.g_members results;
      true
  | None -> false

(* A group launches at its last member: by then every out-of-group
   dependency (constants, scalar indices, access bases) is bound, and no
   non-member can consume a member's output earlier, since anything that
   breaks a run also ends the group. *)
let launch_group p rs scope gid g =
  let t0 = Unix.gettimeofday () in
  Tracer.span_args "kernel.launch"
    ~args:(fun () ->
      [ ("group", string_of_int gid); ("backend", arm_name (group_arm g)) ])
    (fun () ->
      let native =
        match g.g_jit with
        | `Armed entry -> run_group_jit p rs scope gid g entry
        | `Unarmed | `Demoted -> false
      in
      if not native then List.iter (exec_plain_inst rs scope) g.g_members);
  g.g_time <- g.g_time +. (Unix.gettimeofday () -. t0);
  g.g_launches <- g.g_launches + 1

(* --- blocks, control flow, loops --- *)

let block_insts p (b : Graph.block) =
  match Hashtbl.find_opt p.p_blocks b.Graph.b_id with
  | Some bi -> bi
  | None -> error "block %d was not prepared" b.Graph.b_id

(* Whether a loop site runs its arm.  A batching plan needs a trip past
   the loop grain, a body still shaped like the plan, and a parallel
   engine; without one the loop runs untimed on [seq]. *)
let tuned p l (inst : inst) bi trip =
  match l.l_batch with
  | None -> true
  | Some (lp, _) ->
      p.p_parallel && trip > 1 && trip >= p.p_loop_grain
      && Array.length bi.bi_params = Array.length lp.Loop_plan.lp_sliced + 1
      && Array.length bi.bi_insts = Array.length lp.lp_actions
      && Array.length inst.i_out = Array.length lp.lp_sliced

(* The [`Batched] arm: shared carried buffers, then the vectorised plan
   (the chunked one when there is none or it bails), then the loop's
   outputs. *)
let exec_batched p rs ~scope (inst : inst) bi (lp, vector) trip inits =
  let inits = Array.of_list inits in
  let bufs = Loop_plan.carried_buffers rs lp inits in
  (match vector with
  | Some vp when Vector_plan.exec rs bi lp vp trip inits bufs ->
      p.p_counts.vector_loops <- p.p_counts.vector_loops + 1
  | _ -> Loop_plan.exec rs ~pool:p.p_exec_pool bi lp trip inits bufs);
  p.p_counts.parallel_loops <- p.p_counts.parallel_loops + 1;
  Metrics.incr parallel_loops_c;
  Loop_plan.bind_outputs rs ~scope inst lp inits bufs

(* The [`Native] arm: the whole loop in one native launch.  A row-written
   slot is written in place (the init when {!Loop_plan.adopt_or_clone}
   allows it); every other slot's output comes from the storage pool.
   [false] when the launch failed validation: the caller runs the loop
   on [`Seq], and a row-written buffer the launch started on gets every
   row rewritten there. *)
let exec_native p rs ~scope (inst : inst) l (entry, donate) trip inits =
  let rows = Jit.loop_rows entry in
  match
    native_launch p (`Loop, inst.i_node.n_id)
      ~clear:(fun () ->
        l.l_jit <- None;
        l.l_arm <- `Seq)
      (fun ~alloc ~track ->
        let carried =
          Array.mapi
            (fun j v ->
              let t = Value.to_tensor v in
              if not rows.(j) then t
              else
                let b = Loop_plan.adopt_or_clone rs ~donate:donate.(j) t in
                if b == t then t else track b)
            (Array.of_list inits)
        in
        Jit.run_loop entry ~trip ~carried ~alloc ~copy:Fastops.copy_into
          ~lookup:(tensor_lookup p rs) ~scalar:(scalar_lookup p rs))
  with
  | Some outs ->
      Array.iteri (fun k t -> bind rs scope inst.i_out.(k) (Tensor t)) outs;
      consume_all rs inst.i_in;
      true
  | None -> false

let rec exec_block p rs (bi : binst) : Value.t list =
  let scope = ref [] in
  Array.iter (exec_inst p rs ~scope) bi.bi_insts;
  let rets =
    Array.to_list (Array.map (fun slot -> get rs slot) bi.bi_rets)
  in
  List.iter (retain rs) rets;
  exit_scope rs scope;
  (* Each return carries one retained reference the caller must drop after
     rebinding it. *)
  rets

and exec_inst p rs ~scope (inst : inst) =
  let node = inst.i_node in
  match node.n_op with
  | Op.Update -> consume_all rs inst.i_in
  | Op.If -> begin
      match node.n_blocks with
      | [ then_b; else_b ] ->
          let taken = Value.to_bool (get rs inst.i_in.(0)) in
          let bi = block_insts p (if taken then then_b else else_b) in
          if Array.length bi.bi_insts = 0 && Array.length bi.bi_pre = 0 then begin
            (* empty branch: rebind the pass-through values directly *)
            if Array.length bi.bi_rets <> Array.length inst.i_out then
              error "prim::If branch returned %d values for %d outputs"
                (Array.length bi.bi_rets) (Array.length inst.i_out);
            for k = 0 to Array.length inst.i_out - 1 do
              bind rs scope inst.i_out.(k) (get rs bi.bi_rets.(k))
            done;
            consume_all rs inst.i_in
          end
          else begin
            let rets = exec_block p rs bi in
            if List.length rets <> Array.length inst.i_out then
              error "prim::If branch returned %d values for %d outputs"
                (List.length rets) (Array.length inst.i_out);
            List.iteri (fun k ret -> bind rs scope inst.i_out.(k) ret) rets;
            List.iter (unretain rs) rets;
            consume_all rs inst.i_in
          end
      | _ -> error "malformed prim::If"
    end
  | Op.Loop -> exec_loop p rs ~scope inst
  | _ -> begin
      match inst.i_gid with
      | gid when gid >= 0 && rs.live -> (
          match p.p_groups.(gid) with
          | Some g -> if inst.i_last then launch_group p rs scope gid g
          | None -> exec_plain_inst rs scope inst)
      | _ -> exec_plain_inst rs scope inst
    end

and exec_loop p rs ~scope (inst : inst) =
  match inst.i_node.n_blocks with
  | [ body ] -> begin
      let trip = Value.to_int (get rs inst.i_in.(0)) in
      let inits =
        List.init
          (Array.length inst.i_in - 1)
          (fun k -> get rs inst.i_in.(k + 1))
      in
      let bi = block_insts p body in
      if Array.length bi.bi_params = 0 then
        error "prim::Loop body without induction parameter";
      Array.iter (exec_plain_inst rs scope) bi.bi_pre;
      let seq () =
        exec_seq_loop p rs ~scope inst bi trip inits;
        true
      in
      match Hashtbl.find_opt p.p_loops inst.i_node.n_id with
      | Some l when rs.live && tuned p l inst bi trip ->
          let t0 = Unix.gettimeofday () in
          let ran =
            match (l.l_arm, l.l_jit, l.l_batch) with
            | `Native, Some jit, _ ->
                exec_native p rs ~scope inst l jit trip inits
            | `Batched, _, Some plans ->
                exec_batched p rs ~scope inst bi plans trip inits;
                true
            | _ -> false
          in
          if not ran then ignore (seq ());
          l.l_time <- l.l_time +. (Unix.gettimeofday () -. t0);
          l.l_launches <- l.l_launches + 1
      | _ -> ignore (seq ())
    end
  | _ -> error "malformed prim::Loop"

(* The classic sequential loop body: per-iteration scopes, kernel
   fusion and assign donation all active.  Also the [`Seq] arm of a
   loop site: a [Reduction] loop's, a demoted loop kernel's, and any
   forced one's. *)
and exec_seq_loop p rs ~scope (inst : inst) (bi : binst) trip inits =
  (* Consume the loop's input edges up front: if the loop is the
     init's last consumer, iteration writes can donate into it. *)
  List.iter (retain rs) inits;
  consume_all rs inst.i_in;
  let carried = ref inits in
  for i = 0 to trip - 1 do
    let scope' = ref [] in
    bind rs scope' bi.bi_params.(0) (Value.Int i);
    (match !carried with
    | [] -> ()
    | [ a ] ->
        bind rs scope' bi.bi_params.(1) a;
        unretain rs a
    | [ a; b ] ->
        bind rs scope' bi.bi_params.(1) a;
        bind rs scope' bi.bi_params.(2) b;
        unretain rs a;
        unretain rs b
    | l ->
        List.iteri (fun j v -> bind rs scope' bi.bi_params.(j + 1) v) l;
        List.iter (unretain rs) l);
    Array.iter (exec_inst p rs ~scope:scope') bi.bi_insts;
    let rets =
      match bi.bi_rets with
      | [| a |] ->
          let v = get rs a in
          retain rs v;
          [ v ]
      | [| a; b |] ->
          let va = get rs a and vb = get rs b in
          retain rs va;
          retain rs vb;
          [ va; vb ]
      | arr ->
          let l = Array.to_list (Array.map (fun slot -> get rs slot) arr) in
          List.iter (retain rs) l;
          l
    in
    exit_scope rs scope';
    carried := rets
  done;
  if List.length !carried <> Array.length inst.i_out then
    error "prim::Loop carried arity mismatch";
  List.iteri (fun k v -> bind rs scope inst.i_out.(k) v) !carried;
  List.iter (unretain rs) !carried

(* --- preparation --- *)

let prepare ~parallel ~pool:exec_pool ~loop_grain ~kernel_grain ~graph
    ~shapes ~plan =
  Metrics.incr prepares_c;
  Tracer.span_args "scheduler.prepare"
    ~args:(fun () -> [ ("graph", graph.Graph.g_name) ])
  @@ fun () ->
  let slot_tbl : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let nslots = ref 0 in
  let slot_of_value (v : Graph.value) =
    match Hashtbl.find_opt slot_tbl v.Graph.v_id with
    | Some s -> s
    | None ->
        let s = !nslots in
        incr nslots;
        Hashtbl.replace slot_tbl v.Graph.v_id s;
        s
  in
  let blocks = Hashtbl.create 16 in
  let members : (int, inst list) Hashtbl.t = Hashtbl.create 16 in
  let consts = ref [] in
  let pinned_extra = ref [] in
  let rec walk_block (b : Graph.block) =
    let params = Array.of_list (List.map slot_of_value b.Graph.b_params) in
    let insts =
      List.filter_map
        (fun (n : Graph.node) ->
          let i_in = Array.of_list (List.map slot_of_value n.n_inputs) in
          let i_out = Array.of_list (List.map slot_of_value n.n_outputs) in
          List.iter walk_block n.n_blocks;
          match n.n_op with
          | Op.Constant _ ->
              (* Pure and input-free: bound once per run, not per
                 iteration of whatever block contains it. *)
              consts :=
                { i_node = n; i_in; i_out; i_gid = -1; i_last = false }
                :: !consts;
              Array.iter (fun s -> pinned_extra := s :: !pinned_extra) i_out;
              None
          | _ -> (
              (match (n.n_op, n.n_blocks) with
              | Op.Loop, [ body ] -> hoist_invariants body
              | _ -> ());
              match Fusion.kernel_class_of plan n with
              | Fusion.Kernel gid ->
                  (* Groups under a loop register too: a native kernel is
                     compiled once and relaunched every iteration.  The
                     plan leaves in-loop assigns out of
                     every group, so they run per node and can donate. *)
                  let inst =
                    { i_node = n; i_in; i_out; i_gid = gid; i_last = false }
                  in
                  let existing =
                    Option.value (Hashtbl.find_opt members gid) ~default:[]
                  in
                  Hashtbl.replace members gid (existing @ [ inst ]);
                  Some inst
              | Fusion.No_cost ->
                  Some
                    { i_node = n; i_in; i_out; i_gid = -1; i_last = false }))
        b.Graph.b_nodes
    in
    Hashtbl.replace blocks b.Graph.b_id
      {
        bi_insts = Array.of_list insts;
        bi_params = params;
        bi_rets = Array.of_list (List.map slot_of_value b.Graph.b_returns);
        bi_pre = [||];
      }
  (* An access whose operands all come from outside a loop body reads the
     same region every iteration — run it once before the loop.  Views are
     free to hold and their slots are pinned, so hoisting can only block a
     donation the plan would not have made anyway. *)
  and hoist_invariants (body : Graph.block) =
    let bi = Hashtbl.find blocks body.Graph.b_id in
    let defined = Hashtbl.create 32 in
    Array.iter (fun s -> Hashtbl.replace defined s ()) bi.bi_params;
    Array.iter
      (fun (b : inst) ->
        Array.iter (fun s -> Hashtbl.replace defined s ()) b.i_out)
      bi.bi_insts;
    let hoisted = Hashtbl.create 8 in
    let pre = ref [] and rest = ref [] in
    Array.iter
      (fun (b : inst) ->
        let invariant =
          (match b.i_node.n_op with Op.Access _ -> true | _ -> false)
          (* Group members stay put: hoisting one would desynchronize the
             group's first/last-member bookkeeping with execution. *)
          && b.i_gid = -1
          && Array.for_all
               (fun s -> (not (Hashtbl.mem defined s)) || Hashtbl.mem hoisted s)
               b.i_in
        in
        if invariant then begin
          Array.iter
            (fun s ->
              Hashtbl.replace hoisted s ();
              pinned_extra := s :: !pinned_extra)
            b.i_out;
          pre := b :: !pre
        end
        else rest := b :: !rest)
      bi.bi_insts;
    if !pre <> [] then
      Hashtbl.replace blocks body.Graph.b_id
        {
          bi with
          bi_insts = Array.of_list (List.rev !rest);
          bi_pre = Array.of_list (List.rev !pre);
        }
  in
  List.iter (fun v -> ignore (slot_of_value v)) (Graph.params graph);
  walk_block graph.Graph.g_block;
  (* A site for every loop the dependence analysis cleared: a [Parallel]
     one with its batching plans (one whose plan cannot be built stays
     sequential, with no site), a [Reduction] one on [`Seq], so its time
     is still attributed. *)
  let loops : (int, loop) Hashtbl.t = Hashtbl.create 4 in
  let slot (v : Graph.value) = Hashtbl.find_opt slot_tbl v.Graph.v_id in
  let body_size (body : Graph.block) =
    Array.length (Hashtbl.find blocks body.Graph.b_id).bi_insts
  in
  Graph.iter_nodes graph (fun (node : Graph.node) ->
      match (node.n_op, Fusion.loop_verdict plan node, node.n_blocks) with
      | Op.Loop, Loop_par.Parallel info, [ body ] -> (
          let bi = Hashtbl.find blocks body.Graph.b_id in
          match Loop_plan.build graph ~slot node info bi with
          | None -> ()
          | Some lp ->
              Hashtbl.replace loops node.n_id
                (loop_site node
                   ~members:(Array.length lp.lp_actions)
                   ~batch:(Some (lp, Vector_plan.plan bi lp))
                   ~jit:None))
      | Op.Loop, Loop_par.Reduction _, [ body ] ->
          Hashtbl.replace loops node.n_id
            (loop_site node ~members:(body_size body) ~batch:None ~jit:None)
      | _ -> ());
  let usage =
    Tracer.span "engine.buffer_plan" (fun () -> Buffer_plan.analyze graph)
  in
  let uses = Array.make !nslots 0 in
  let pinned = Array.make !nslots true in
  Hashtbl.iter
    (fun v_id (u : Buffer_plan.usage) ->
      match Hashtbl.find_opt slot_tbl v_id with
      | Some s ->
          uses.(s) <- u.Buffer_plan.u_uses;
          pinned.(s) <- u.Buffer_plan.u_pinned
      | None -> ())
    usage;
  List.iter (fun s -> pinned.(s) <- true) !pinned_extra;
  (* Fold the per-group tables into one dense dispatch array and stamp
     each group's last member as its launch point, so the executor's
     per-instruction dispatch is an array load instead of hashtable
     probes (see {!group}). *)
  let max_gid = Hashtbl.fold (fun gid _ acc -> max gid acc) members (-1) in
  let groups = Array.make (max_gid + 1) None in
  Hashtbl.iter
    (fun gid ms ->
      (List.nth ms (List.length ms - 1)).i_last <- true;
      groups.(gid) <-
        Some { g_members = ms; g_jit = `Unarmed; g_time = 0.; g_launches = 0 })
    members;
  let scalar_slots = Hashtbl.create 64 in
  let note_value (v : Graph.value) =
    match Hashtbl.find_opt slot_tbl v.Graph.v_id with
    | Some s -> Hashtbl.replace scalar_slots (Codegen.value_ref v) s
    | None -> ()
  in
  List.iter note_value (Graph.params graph);
  Graph.iter_nodes graph (fun node ->
      List.iter note_value node.n_outputs;
      List.iter
        (fun (b : Graph.block) -> List.iter note_value b.b_params)
        node.n_blocks);
  let has_mutation = ref false in
  Graph.iter_nodes graph (fun node ->
      match node.n_op with Op.Mutate _ -> has_mutation := true | _ -> ());
  {
    p_graph = graph;
    p_plan = plan;
    p_out_shapes =
      List.map (Shape_infer.shape_of shapes) (Graph.returns graph);
    p_nslots = !nslots;
    p_uses = uses;
    p_pinned = pinned;
    p_blocks = blocks;
    p_loops = loops;
    p_slot = slot_tbl;
    p_groups = groups;
    p_in_shapes = List.map (Shape_infer.shape_of shapes) (Graph.params graph);
    p_consts = Array.of_list (List.rev !consts);
    p_scalar_slots = scalar_slots;
    p_live = not !has_mutation;
    p_parallel = parallel;
    p_pool = Buffer_plan.create_pool ();
    p_exec_pool = exec_pool;
    p_loop_grain = max 1 loop_grain;
    p_kernel_grain = max 1 kernel_grain;
    p_counts = Frame.counts ();
  }

let output_shapes p = p.p_out_shapes

let group_at p gid =
  if gid >= 0 && gid < Array.length p.p_groups then p.p_groups.(gid) else None

let arm p (entries : Jit.armed) =
  let groups =
    List.fold_left
      (fun n (gid, entry) ->
        match group_at p gid with
        | Some ({ g_jit = `Unarmed; _ } as g) ->
            g.g_jit <- `Armed entry;
            n + 1
        | Some _ | None -> n)
      0 entries.groups
  in
  let node_of id =
    List.find_opt
      (fun (n : Graph.node) -> n.Graph.n_id = id)
      (Graph.all_nodes p.p_graph)
  in
  List.fold_left
    (fun n (id, entry) ->
      match (Hashtbl.find_opt p.p_loops id, node_of id) with
      | None, Some node ->
          let donate =
            Array.init
              (List.length node.n_inputs - 1)
              (Loop_plan.donatable p.p_graph node)
          in
          Hashtbl.replace p.p_loops id
            (loop_site node
               ~members:(List.length (List.hd node.n_blocks).Graph.b_nodes)
               ~batch:None ~jit:(Some (entry, donate)));
          n + 1
      | _ -> n)
    groups entries.loops

(* A loop site has [native] while its kernel is armed, [batched] with a
   batching plan, and [seq] always; a group has [c-jit] while armed and
   [per_node] always. *)
let loop_has l = function
  | `Native -> Option.is_some l.l_jit
  | `Batched -> Option.is_some l.l_batch
  | `Seq -> true

let force p ((kind, id) : site) (a : arm) =
  match (kind, a, group_at p id, Hashtbl.find_opt p.p_loops id) with
  | `Group, `Cjit, Some { g_jit = `Armed _; _ }, _ -> ()
  | `Group, `Per_node, Some g, _ ->
      g.g_jit <- `Demoted;
      Journal.record Jit_demote "scheduler.group" ~id ~arm:"per_node"
        ~detail:"forced"
  | `Loop, (#larm as a), _, Some l when loop_has l a ->
      l.l_arm <- a;
      Journal.record Tuner_pin "scheduler.loop" ~id ~arm:(arm_name a)
        ~detail:"forced"
  | _ ->
      invalid_arg
        (Printf.sprintf "Scheduler.force: %s#%d has no %s arm"
           (site_kind kind) id (arm_name a))

let kind_name = function
  | Value.Tensor _ -> "a tensor"
  | Value.Int _ -> "an int"
  | Value.Float _ -> "a float"
  | Value.Bool _ -> "a bool"
  | Value.List _ -> "a list"

let check_args (g : Graph.t) expected args =
  let params = Graph.params g in
  let fail k fmt =
    Printf.ksprintf
      (fun m -> Error (Printf.sprintf "graph %s argument %d %s" g.g_name k m))
      fmt
  in
  let of_kind (ty : Dtype.t) v =
    match (ty, v) with
    | Tensor, Value.Tensor _
    | Scalar Int, Value.Int _
    | Scalar Float, Value.Float _
    | Scalar Bool, Value.Bool _
    | List _, Value.List _ ->
        true
    | (Tensor | Scalar _ | List _), _ -> false
  in
  let rec go k = function
    | [] -> Ok ()
    | ((p : Graph.value), _, v) :: _ when not (of_kind p.v_type v) ->
        fail k "is %s; it was compiled as %s" (kind_name v)
          (Dtype.to_string p.v_type)
    | (_, Some s, Value.Tensor (t : Tensor.t)) :: _
      when not (Shape_infer.matches s t.Tensor.shape) ->
        fail k "has shape %s; it was compiled for %s"
          (Shape_infer.to_string (Shape_infer.known t.Tensor.shape))
          (Shape_infer.to_string s)
    | _ :: rest -> go (k + 1) rest
  in
  if List.length params <> List.length args then
    Error
      (Printf.sprintf "graph %s expects %d arguments, got %d" g.g_name
         (List.length params) (List.length args))
  else
    go 0
      (List.map2 (fun p (s, v) -> (p, s, v)) params (List.combine expected args))

let run p args =
  Metrics.incr runs_c;
  Tracer.span_args "scheduler.run"
    ~args:(fun () -> [ ("graph", p.p_graph.Graph.g_name) ])
  @@ fun () ->
  (* Rebind the kernel-library chunker to this engine's pool for the whole
     invocation (a process-wide ref: a session shard on another domain
     may rebind it mid-run, which never changes a result; see Fastops). *)
  Fastops.set_parallel
    (if p.p_parallel then Some p.p_exec_pool else None)
    ~grain:p.p_kernel_grain;
  (match check_args p.p_graph p.p_in_shapes args with
  | Ok () -> ()
  | Error m -> error "%s" m);
  let params = Graph.params p.p_graph in
  let rs =
    Frame.create ~nslots:p.p_nslots ~live:p.p_live ~uses:p.p_uses
      ~pinned:p.p_pinned ~pool:p.p_pool ~counts:p.p_counts ~foreign:args
  in
  Array.iter
    (fun (c : inst) ->
      List.iteri
        (fun k out -> rs.vals.(c.i_out.(k)) <- Some out)
        (Eval.apply_op c.i_node []))
    p.p_consts;
  let scope = ref [] in
  List.iter2
    (fun (v : Graph.value) arg ->
      bind rs scope (Hashtbl.find p.p_slot v.Graph.v_id) arg)
    params args;
  exec_block p rs (Hashtbl.find p.p_blocks p.p_graph.g_block.b_id)

type stats = {
  groups : int;
  kernel_runs : int;
  pool_fresh : int;
  pool_reused : int;
  donations : int;
  parallel_loops_run : int;
  batched_loops : int;  (* loops with an iteration-batching plan *)
  vector_loops : int;  (* batched loop executions on the vector arm *)
  cjit_groups : int;  (* groups armed with a native kernel *)
  cjit_runs : int;  (* native launches *)
  jit_fallbacks : int;  (* launch-validation demotions to per-node *)
  loops_pinned_batched : int;  (* batched loops on the [batched] arm *)
  native_loops : int;  (* sequential loops armed with a loop kernel *)
  pool_lanes : int;
}

let stats p =
  let loops f =
    Hashtbl.fold (fun _ l n -> if f l then n + 1 else n) p.p_loops 0
  in
  let batched l = Option.is_some l.l_batch in
  let c = p.p_counts in
  {
    groups = List.length (Fusion.group_sizes p.p_plan);
    kernel_runs = c.cjit_runs;
    pool_fresh = Buffer_plan.fresh_allocs p.p_pool;
    pool_reused = Buffer_plan.reuses p.p_pool;
    donations = c.donations;
    parallel_loops_run = c.parallel_loops;
    batched_loops = loops batched;
    vector_loops = c.vector_loops;
    cjit_groups =
      Array.fold_left
        (fun n g -> match g with Some { g_jit = `Armed _; _ } -> n + 1 | _ -> n)
        0 p.p_groups;
    cjit_runs = c.cjit_runs;
    jit_fallbacks = c.jit_fallbacks;
    loops_pinned_batched = loops (fun l -> batched l && l.l_arm = `Batched);
    native_loops = loops (fun l -> Option.is_some l.l_jit);
    pool_lanes = Pool.lanes p.p_exec_pool;
  }

(* --- kernel-group wall-time attribution ---

   Every group launch and every loop-site launch is already timed, so
   the accumulated per-site cost is collected as a side effect of normal
   dispatch.  Rows are sorted by time, hottest first. *)

type attribution_row = {
  at_id : int;  (* gid, or the loop node's id *)
  at_kind : [ `Group | `Loop ];
  at_arm : string;  (* the arm the site runs *)
  at_members : int;  (* member instructions (groups) or trip sites (loops) *)
  at_ops : string list;  (* member (groups) or body (loops) op names *)
  at_time_s : float;  (* accumulated launch wall time *)
  at_launches : int;
}

let attribution p =
  let row kind id arm time launches members ops =
    {
      at_id = id;
      at_kind = kind;
      at_arm = arm;
      at_members = members;
      at_ops = ops;
      at_time_s = time;
      at_launches = launches;
    }
  in
  let rows = ref [] in
  Array.iteri
    (fun gid -> function
      | Some g when g.g_launches > 0 ->
          rows :=
            row `Group gid (arm_name (group_arm g)) g.g_time g.g_launches
              (List.length g.g_members)
              (op_names (List.map (fun i -> i.i_node) g.g_members))
            :: !rows
      | _ -> ())
    p.p_groups;
  Hashtbl.iter
    (fun lid l ->
      if l.l_launches > 0 then
        rows :=
          row `Loop lid (arm_name l.l_arm) l.l_time l.l_launches l.l_members
            l.l_ops
          :: !rows)
    p.p_loops;
  List.sort (fun a b -> Float.compare b.at_time_s a.at_time_s) !rows

let clear_buffers p = Buffer_plan.clear p.p_pool
