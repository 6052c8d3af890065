(* Forced-arm differential: every arm of every site of the ten registry
   workloads, pinned in turn through [Engine.force], must reproduce the
   reference interpreter.  Sites are the attribution rows of a first run
   ([group#N] and [loop#N]); an arm a site lacks raises
   [Invalid_argument] and is skipped.  Each workload runs at batch 1
   and 4, optimized for its input shapes as a session does, on the
   sequential engine ([~parallel:false], JIT off), and on 1 and 2 lanes
   with the JIT off and — when a C compiler is present — on [Auto],
   awaited so groups and loop kernels are armed: every qualifying loop
   is forced to [native] as well.  Outputs compare bitwise
   ([Equiv.bitwise]). *)

open Functs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let arms : Scheduler.arm list =
  [ `Cjit; `Per_node; `Batched; `Seq; `Native ]

let arm_name : Scheduler.arm -> string = function
  | `Cjit -> "c-jit"
  | `Per_node -> "per_node"
  | `Batched -> "batched"
  | `Seq -> "seq"
  | `Native -> "native"

let jit_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "functs-forced-%d" (Unix.getpid ()))
  in
  at_exit (fun () ->
      match Sys.readdir d with
      | files ->
          Array.iter
            (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
            files;
          (try Unix.rmdir d with _ -> ())
      | exception _ -> ());
  d

let site_name ((kind, id) : Scheduler.site) =
  Printf.sprintf "%s#%d" (match kind with `Group -> "group" | `Loop -> "loop") id

let test_forced_arms () =
  let jits =
    if Jit.c_toolchain_available () then [ Jit.Off; Jit.Auto ] else [ Jit.Off ]
  in
  let forced = Hashtbl.create 8 in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun batch ->
          let seq = w.Workload.default_seq in
          let g = Workload.graph w ~batch ~seq in
          let args () = w.Workload.inputs ~batch ~seq in
          let expected = Eval.run g (args ()) in
          let fg = Graph.clone g in
          ignore
            (Passes.tensorssa_pipeline
               ~inputs:(Engine.input_shapes (args ()))
               fg);
          List.iter
            (fun (parallel, domains, jit) ->
              let label =
                Printf.sprintf "%s b%d %s jit=%s" w.Workload.name batch
                  (if parallel then Printf.sprintf "d%d" domains else "sequential")
                  (Jit.mode_to_string jit)
              in
              let eng =
                Engine.prepare ~parallel ~domains ~cache:false ~jit ~jit_dir
                  fg ~inputs:(Engine.input_shapes (args ()))
              in
              Engine.await_jit eng;
              let agrees what =
                check (label ^ ": " ^ what) true
                  (Equiv.bitwise expected (Engine.run eng (args ())))
              in
              agrees "first run";
              List.iter
                (fun (r : Scheduler.attribution_row) ->
                  let site = (r.Scheduler.at_kind, r.Scheduler.at_id) in
                  List.iter
                    (fun arm ->
                      match Engine.force eng site arm with
                      | exception Invalid_argument _ -> ()
                      | () ->
                          Hashtbl.replace forced (arm_name arm) ();
                          agrees
                            (Printf.sprintf "%s forced to %s" (site_name site)
                               (arm_name arm)))
                    arms)
                (Engine.attribution eng))
            ((false, 1, Jit.Off)
            :: List.concat_map (fun d -> List.map (fun j -> (true, d, j)) jits) [ 1; 2 ]))
        [ 1; 4 ])
    (Registry.all @ Registry.extensions);
  List.iter
    (fun arm ->
      if (arm <> `Cjit && arm <> `Native) || List.mem Jit.Auto jits then
        check (arm_name arm ^ " was forced somewhere") true
          (Hashtbl.mem forced (arm_name arm)))
    arms

(* What a forced arm must refuse, and that a forced pin holds. *)
let test_force_contract () =
  let w = Option.get (Registry.find "yolact") in
  let batch = 1 and seq = w.Workload.default_seq in
  let fg = Graph.clone (Workload.graph w ~batch ~seq) in
  ignore (Passes.tensorssa_pipeline fg);
  let args () = w.Workload.inputs ~batch ~seq in
  let eng =
    Engine.prepare ~parallel:true ~domains:1 ~cache:false fg
      ~inputs:(Engine.input_shapes (args ()))
  in
  ignore (Engine.run eng (args ()));
  let rows = Engine.attribution eng in
  let find kind =
    match
      List.find_opt (fun (r : Scheduler.attribution_row) -> r.Scheduler.at_kind = kind) rows
    with
    | Some r -> (kind, r.Scheduler.at_id)
    | None -> Alcotest.fail "yolact has a group and a loop site"
  in
  let group = find `Group and loop = find `Loop in
  let refuses what site arm =
    check what true
      (match Engine.force eng site arm with
      | () -> false
      | exception Invalid_argument _ -> true)
  in
  refuses "c-jit before any kernel is armed" group `Cjit;
  refuses "a loop arm on a group" group `Seq;
  refuses "a group arm on a loop" loop `Per_node;
  refuses "an unknown site" (`Loop, -1) `Batched;
  refuses "native on a batched loop" loop `Native;
  Engine.force eng loop `Seq;
  for _ = 1 to 40 do
    ignore (Engine.run eng (args ()))
  done;
  let arm_of site =
    List.find_map
      (fun (r : Scheduler.attribution_row) ->
        if (r.Scheduler.at_kind, r.Scheduler.at_id) = site then Some r.Scheduler.at_arm
        else None)
      (Engine.attribution eng)
  in
  Alcotest.(check (option string)) "the forced pin never expires" (Some "seq")
    (arm_of loop)

(* Groups are not tuned: once armed, a group runs its C kernel on every
   launch, and only [Engine.force] (or a failed launch validation)
   demotes it to per-node. *)
let test_untuned_groups () =
  if Jit.c_toolchain_available () then
    List.iter
      (fun (w : Workload.t) ->
        let batch = 1 and seq = w.Workload.default_seq in
        let args () = w.Workload.inputs ~batch ~seq in
        let fg = Graph.clone (Workload.graph w ~batch ~seq) in
        let inputs = Engine.input_shapes (args ()) in
        ignore (Passes.tensorssa_pipeline ~inputs fg);
        let eng =
          Engine.prepare ~parallel:true ~domains:1 ~cache:false ~jit:Jit.Auto
            ~jit_dir fg ~inputs
        in
        Engine.await_jit eng;
        Journal.clear ();
        for _ = 1 to 8 do
          ignore (Engine.run eng (args ()))
        done;
        let name = w.Workload.name in
        check (name ^ ": no group sample or pin after arming") false
          (List.exists
             (fun (e : Journal.entry) ->
               e.j_site = "scheduler.group"
               && (e.j_kind = Journal.Tuner_sample
                  || e.j_kind = Journal.Tuner_pin))
             (Journal.entries ()));
        let armed =
          List.filter
            (fun (r : Scheduler.attribution_row) ->
              r.Scheduler.at_kind = `Group
              &&
              match Engine.force eng (`Group, r.Scheduler.at_id) `Cjit with
              | () -> true
              | exception Invalid_argument _ -> false)
            (Engine.attribution eng)
        in
        List.iter
          (fun (r : Scheduler.attribution_row) ->
            Alcotest.(check string)
              (Printf.sprintf "%s: armed group#%d reads c-jit" name
                 r.Scheduler.at_id)
              "c-jit" r.Scheduler.at_arm)
          armed;
        match armed with
        | [] -> ()
        | r :: _ ->
            let id = r.Scheduler.at_id in
            let groups = (Engine.stats eng).Scheduler.cjit_groups in
            Engine.force eng (`Group, id) `Per_node;
            ignore (Engine.run eng (args ()));
            check_int
              (name ^ ": forcing per_node disarms the group")
              (groups - 1) (Engine.stats eng).Scheduler.cjit_groups;
            check (name ^ ": the forced group reads per_node") true
              (List.exists
                 (fun (r : Scheduler.attribution_row) ->
                   r.Scheduler.at_kind = `Group && r.Scheduler.at_id = id
                   && r.Scheduler.at_arm = "per_node")
                 (Engine.attribution eng));
            check (name ^ ": the demotion is journaled as forced") true
              (List.exists
                 (fun (e : Journal.entry) ->
                   e.j_kind = Journal.Jit_demote && e.j_site = "scheduler.group"
                   && e.j_id = id && e.j_arm = "per_node"
                   && e.j_detail = "forced")
                 (Journal.entries ()));
            check (name ^ ": a demoted group refuses c-jit") true
              (match Engine.force eng (`Group, id) `Cjit with
              | () -> false
              | exception Invalid_argument _ -> true))
      (Registry.all @ Registry.extensions)

let () =
  Alcotest.run "forced"
    [
      ( "forced",
        [
          Alcotest.test_case "force refuses arms a site lacks" `Quick
            test_force_contract;
          Alcotest.test_case "armed groups run c-jit untuned" `Slow
            test_untuned_groups;
          Alcotest.test_case "every arm of every site vs interpreter" `Slow
            test_forced_arms;
        ] );
    ]
