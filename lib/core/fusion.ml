open Functs_ir

type kernel_class = No_cost | Kernel of int

type plan = {
  classes : (int, kernel_class) Hashtbl.t;
  group_count : int;
  parallel_loops : (int, unit) Hashtbl.t;
  loop_verdicts : (int, Loop_par.verdict) Hashtbl.t;
  escaping : (int, unit) Hashtbl.t;
}

(* Vertical fusion: maximal consecutive runs of fusible nodes per block.
   Free nodes neither join nor break a run; Break closes it without a
   kernel; Kernel nodes are singleton groups.

   With [fence_loop_assigns], an [immut::assign] inside a loop body is
   left out of every group and closes the run around it: the executor
   runs it per node, so the write can donate into the carried buffer
   (O(region) per iteration, where a kernel would materialize the whole
   tensor), and the compute chain around it (the GRU/LSTM cell body)
   stays an assign-free group the JIT can run as one kernel.  No kernel
   is emitted for the assign, so a C unit holds only kernels the engine
   arms.  The flag is the execution engine's: the cost model and the
   figures count kernel launches over the unfenced plan, where a launch
   means one fused group per the paper's accounting. *)
let assign_groups ~fence_loop_assigns profile (g : Graph.t) classes =
  let next_group = ref 0 in
  let fresh_group () =
    let id = !next_group in
    incr next_group;
    id
  in
  let rec walk_block ~in_loop (block : Graph.block) =
    let current = ref None in
    let close () = current := None in
    List.iter
      (fun (node : Graph.node) ->
        match profile.Compiler_profile.classify node.n_op with
        | Compiler_profile.Free -> Hashtbl.replace classes node.n_id No_cost
        | Compiler_profile.Break ->
            Hashtbl.replace classes node.n_id No_cost;
            close ()
        | Compiler_profile.Kernel ->
            Hashtbl.replace classes node.n_id (Kernel (fresh_group ()));
            close ()
        | Compiler_profile.Fusible
          when fence_loop_assigns && in_loop
               && (match node.n_op with Op.Assign _ -> true | _ -> false) ->
            Hashtbl.replace classes node.n_id No_cost;
            close ()
        | Compiler_profile.Fusible ->
            let gid =
              match !current with
              | Some gid -> gid
              | None ->
                  let gid = fresh_group () in
                  current := Some gid;
                  gid
            in
            Hashtbl.replace classes node.n_id (Kernel gid)
        | Compiler_profile.Control ->
            Hashtbl.replace classes node.n_id No_cost;
            close ();
            let in_loop = in_loop || node.n_op = Op.Loop in
            List.iter (walk_block ~in_loop) node.n_blocks)
      block.b_nodes
  in
  walk_block ~in_loop:false g.g_block;
  !next_group

(* A group consisting solely of [immut::access] nodes moves no data of its
   own: each member is a (possibly strided) read that its consumers — e.g.
   a matmul reading through the descriptor — perform directly.  Demote such
   groups to metadata so functionalization is never charged for turning a
   view into an access. *)
let demote_access_only_groups (g : Graph.t) classes =
  let members : (int, Graph.node list) Hashtbl.t = Hashtbl.create 16 in
  Graph.iter_nodes g (fun node ->
      match Hashtbl.find_opt classes node.n_id with
      | Some (Kernel gid) ->
          let existing = Option.value (Hashtbl.find_opt members gid) ~default:[] in
          Hashtbl.replace members gid (node :: existing)
      | Some No_cost | None -> ());
  Hashtbl.iter
    (fun _gid nodes ->
      let access_only =
        List.for_all
          (fun (n : Graph.node) ->
            match n.n_op with Op.Access _ -> true | _ -> false)
          nodes
      in
      if access_only then
        List.iter
          (fun (n : Graph.node) -> Hashtbl.replace classes n.n_id No_cost)
          nodes)
    members

let node_group classes (node : Graph.node) =
  match Hashtbl.find_opt classes node.n_id with
  | Some (Kernel gid) -> Some gid
  | Some No_cost | None -> None

(* A fused value escapes when some consumer lives outside its group (or it
   is returned from a block). *)
let compute_escaping (g : Graph.t) classes =
  let escaping = Hashtbl.create 64 in
  Graph.iter_nodes g (fun node ->
      match node_group classes node with
      | None -> ()
      | Some gid ->
          List.iter
            (fun (out : Graph.value) ->
              let escapes =
                List.exists
                  (function
                    | Graph.Return _ -> true
                    | Graph.Input (consumer, _) -> (
                        match node_group classes consumer with
                        | Some gid' -> gid' <> gid
                        | None -> true))
                  (Graph.uses_in g out)
              in
              if escapes then Hashtbl.replace escaping out.v_id ())
            node.n_outputs);
  escaping

let plans_c = Functs_obs.Metrics.counter "fusion.plans"
let loops_parallel_c = Functs_obs.Metrics.counter "fusion.loops.parallel"
let loops_reduction_c = Functs_obs.Metrics.counter "fusion.loops.reduction"
let loops_sequential_c = Functs_obs.Metrics.counter "fusion.loops.sequential"

(* Horizontal parallelization: every [prim::Loop] is classified by the
   dependence analysis in {!Loop_par}; profile knobs can only demote a
   verdict, never promote one. *)
let classify_loops profile g =
  let verdicts = Hashtbl.create 4 in
  Graph.iter_nodes g (fun (node : Graph.node) ->
      if node.n_op = Op.Loop then begin
        let verdict =
          if not profile.Compiler_profile.horizontal then
            Loop_par.Sequential "horizontal parallelization disabled by profile"
          else
            match Loop_par.classify g node with
            | Loop_par.Reduction _
              when not profile.Compiler_profile.parallel_reductions ->
                Loop_par.Sequential "parallel reductions disabled by profile"
            | v -> v
        in
        (match verdict with
        | Loop_par.Parallel _ ->
            Functs_obs.Metrics.incr loops_parallel_c
        | Loop_par.Reduction _ ->
            Functs_obs.Metrics.incr loops_reduction_c
        | Loop_par.Sequential reason ->
            Functs_obs.Metrics.incr loops_sequential_c;
            Functs_obs.Tracer.instant "fusion.loop_sequential"
              ~args:
                [
                  ("graph", g.Graph.g_name);
                  ("loop", string_of_int node.n_id);
                  ("reason", reason);
                ]);
        Hashtbl.replace verdicts node.n_id verdict
      end);
  verdicts

let plan ?(fence_loop_assigns = false) profile (g : Graph.t) =
  Functs_obs.Tracer.span_args "fusion.plan"
    ~args:(fun () ->
      [ ("graph", g.Graph.g_name); ("profile", profile.Compiler_profile.short_name) ])
  @@ fun () ->
  let classes = Hashtbl.create 64 in
  let group_count = assign_groups ~fence_loop_assigns profile g classes in
  demote_access_only_groups g classes;
  let escaping = compute_escaping g classes in
  let loop_verdicts = classify_loops profile g in
  let parallel_loops = Hashtbl.create 4 in
  let reductions = ref 0 in
  Hashtbl.iter
    (fun node_id verdict ->
      match verdict with
      | Loop_par.Parallel _ -> Hashtbl.replace parallel_loops node_id ()
      | Loop_par.Reduction _ ->
          incr reductions;
          Hashtbl.replace parallel_loops node_id ()
      | Loop_par.Sequential _ -> ())
    loop_verdicts;
  Functs_obs.Metrics.incr plans_c;
  Functs_obs.Tracer.instant "fusion.planned"
    ~args:
      [
        ("groups", string_of_int group_count);
        ("parallel_loops", string_of_int (Hashtbl.length parallel_loops));
        ("reduction_loops", string_of_int !reductions);
      ];
  { classes; group_count; parallel_loops; loop_verdicts; escaping }

let kernel_class_of plan (node : Graph.node) =
  Option.value (Hashtbl.find_opt plan.classes node.n_id) ~default:No_cost

let is_parallel_loop plan (node : Graph.node) =
  Hashtbl.mem plan.parallel_loops node.n_id

let loop_verdict plan (node : Graph.node) =
  match Hashtbl.find_opt plan.loop_verdicts node.n_id with
  | Some v -> v
  | None -> Loop_par.Sequential "not a classified loop"

let value_escapes plan (v : Graph.value) = Hashtbl.mem plan.escaping v.v_id

let group_sizes plan =
  let counts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ cls ->
      match cls with
      | Kernel gid ->
          let c = Option.value (Hashtbl.find_opt counts gid) ~default:0 in
          Hashtbl.replace counts gid (c + 1)
      | No_cost -> ())
    plan.classes;
  Hashtbl.fold (fun gid c acc -> (gid, c) :: acc) counts []
  |> List.sort compare
