(* functs — command-line driver for the TensorSSA reproduction.

   Everything below consumes the [Functs] facade: structured [Error.t]
   values (no raised [Failure]s), the typed [Config.t] resolved once at
   startup from the FUNCTS_* environment overlay, and the session layer
   for serving.

   Subcommands:
     list                         workloads and pipelines
     show    <workload>           imperative source + graph IR
     compile <workload>           TensorSSA conversion with statistics
     run     <workload>           trace execution under a pipeline
     config                       print the resolved configuration
     report  [figure...]          regenerate the paper's tables *)

open Cmdliner
open Functs

(* Resolve FUNCTS_* once, at startup; every later layer takes the typed
   config explicitly.  A malformed variable is a startup error, not a
   silent fallback. *)
let config =
  match Functs.init () with
  | Ok cfg -> cfg
  | Error e ->
      prerr_endline ("functs: " ^ Error.to_string e);
      exit 2

let fail e = `Error (false, Error.to_string e)

let clone_args =
  List.map (function
    | Value.Tensor t -> Value.Tensor (Tensor.clone t)
    | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)

(* --- arguments --- *)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let batch_arg =
  Arg.(value & opt (some int) None & info [ "b"; "batch" ] ~docv:"N" ~doc:"Batch size.")

let seq_arg =
  Arg.(
    value & opt (some int) None
    & info [ "s"; "seq" ] ~docv:"N" ~doc:"Sequence length (NLP workloads).")

let pipeline_arg =
  Arg.(
    value & opt string "TensorSSA"
    & info [ "p"; "pipeline" ] ~docv:"NAME"
        ~doc:"Compiler pipeline: Eager, TS+NNC, TS+nvFuser, Dynamo+Inductor, \
              TensorSSA, TensorSSA-noH, TensorSSA-noV.")

let scales (w : Workload.t) batch seq =
  ( Option.value batch ~default:w.default_batch,
    Option.value seq ~default:w.default_seq )

(* --- list --- *)

let list_cmd =
  let run () =
    print_endline "Workloads:";
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "  %-10s %-10s (%s)\n" w.name
          (Workload.kind_to_string w.kind)
          w.display)
      Registry.all;
    print_endline "\nExtension workloads (beyond the paper):";
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "  %-10s %-10s (%s)\n" w.name
          (Workload.kind_to_string w.kind)
          w.display)
      Registry.extensions;
    print_endline "\nPipelines:";
    List.iter
      (fun (p : Compiler_profile.t) ->
        Printf.printf "  %-16s %s\n" p.short_name p.name)
      Compiler_profile.all;
    print_endline "\nPlatforms:";
    List.iter
      (fun (p : Platform.t) -> Printf.printf "  %-12s %s\n" p.short_name p.name)
      Platform.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, pipelines and platforms.")
    Term.(const run $ const ())

(* --- show --- *)

let show_cmd =
  let dot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Also write a Graphviz rendering.")
  in
  let run name batch seq dot =
    match Functs.find_workload name with
    | Error e -> fail e
    | Ok w ->
        let batch, seq = scales w batch seq in
        print_endline "=== Imperative source ===";
        print_endline (Pretty.program_to_string (w.program ~batch ~seq));
        print_endline "=== Graph-level IR ===";
        let g = Workload.graph w ~batch ~seq in
        print_endline (Printer.to_string g);
        (match dot with
        | Some path ->
            Dot.write_file g ~path;
            Printf.printf "\nGraphviz written to %s\n" path
        | None -> ());
        `Ok ()
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a workload's imperative source and graph IR.")
    Term.(ret (const run $ workload_arg $ batch_arg $ seq_arg $ dot_arg))

(* --- compile --- *)

let compile_cmd =
  let run name batch seq =
    match Functs.find_workload name with
    | Error e -> fail e
    | Ok w ->
        let batch, seq = scales w batch seq in
        let g = Workload.graph w ~batch ~seq in
        (* the pipeline the engine compiles, input shapes included *)
        let inputs = Engine.input_shapes (w.inputs ~batch ~seq) in
        let stats, report = Passes.tensorssa_pipeline ~inputs g in
        print_endline "=== TensorSSA form (optimized) ===";
        print_endline (Printer.to_string g);
        Printf.printf
          "\nmutations rewritten : %d\nsub-graphs converted: %d\nsub-graphs \
           skipped  : %d\nupdates inserted    : %d\nnodes removed (DCE) : %d\n"
          stats.mutations_rewritten stats.subgraphs_functionalized
          (List.length stats.subgraphs_skipped)
          stats.updates_inserted stats.nodes_removed_by_dce;
        Printf.printf "%d folds, %d CSE merges, %d nodes removed\n"
          report.folds report.cse_merged report.dce_removed;
        List.iter
          (fun (reason, witness) ->
            Printf.printf "  skipped %s: %s\n" witness
              (Subgraph.unsafe_reason_to_string reason))
          stats.subgraphs_skipped;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Run a workload through the TensorSSA pipeline the engine compiles \
          (functionalize, then fold / CSE / DCE at its input shapes) and \
          print the result.")
    Term.(ret (const run $ workload_arg $ batch_arg $ seq_arg))

(* --- run --- *)

(* Wall-clock of [f]: one warm-up call, then best of enough repetitions to
   cover ~0.1 s (at most 20). *)
let time_best f =
  ignore (f ());
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let first = once () in
  let reps = max 2 (min 20 (int_of_float (0.1 /. Float.max 1e-6 first))) in
  let best = ref first in
  for _ = 1 to reps do
    let t = once () in
    if t < !best then best := t
  done;
  !best

let run_trace (w : Workload.t) (profile : Compiler_profile.t) batch seq =
  let reference = Workload.graph w ~batch ~seq in
  let g = Graph.clone reference in
  Passes.for_profile profile g;
  let plan = Fusion.plan profile g in
  let args = w.inputs ~batch ~seq in
  let outputs, summary = Trace.run ~profile ~plan g (clone_args args) in
  let expected = Eval.run reference (clone_args args) in
  let ok = List.for_all2 (Value.equal ~atol:1e-4) expected outputs in
  Printf.printf "workload   : %s (batch=%d, seq=%d)\n" w.display batch seq;
  Printf.printf "pipeline   : %s\n" profile.name;
  Printf.printf "kernels    : %d launches, %.1f KB moved, %.0f flops\n"
    summary.kernel_launches
    (summary.total_bytes /. 1024.0)
    summary.total_flops;
  List.iter
    (fun (pl : Platform.t) ->
      Printf.printf "latency    : %8.1f us on %s\n"
        (Trace.latency_us pl profile summary)
        pl.name)
    Platform.all;
  Printf.printf "reference  : outputs %s\n"
    (if ok then "MATCH the eager semantics" else "DIVERGE (bug!)");
  if ok then `Ok () else `Error (false, "outputs diverged")

(* The commands that run an engine measure or count an armed one: they
   wait for a background JIT compile before the first run. *)
let prepare_engine ?(profile = Compiler_profile.tensorssa) g args =
  let eng =
    Engine.prepare ~profile ~domains:config.Config.domains
      ~loop_grain:config.Config.loop_grain
      ~kernel_grain:config.Config.kernel_grain ~cache:config.Config.cache
      ~jit:config.Config.jit ~jit_dir:config.Config.jit_dir g
      ~inputs:(Engine.input_shapes args)
  in
  Engine.await_jit eng;
  eng

let run_exec (w : Workload.t) (profile : Compiler_profile.t) batch seq =
  let reference = Workload.graph w ~batch ~seq in
  let g = Graph.clone reference in
  let args = w.inputs ~batch ~seq in
  Passes.for_profile ~inputs:(Engine.input_shapes args) profile g;
  let eng = prepare_engine ~profile g args in
  let expected = Eval.run reference (clone_args args) in
  (* the shared pool's counters are cumulative: the domains line reports
     their difference over this engine's runs *)
  let pool = Pool.shared ~lanes:config.Config.domains in
  let pool_counters () =
    Pool.
      [|
        dispatches pool;
        worker_tasks pool;
        caller_tasks pool;
        seq_fallbacks pool;
        fallback_grain pool;
        fallback_nested pool;
        fallback_disabled pool;
      |]
  in
  let p0 = pool_counters () in
  let outputs = Engine.run eng args in
  let ok = Equiv.bitwise expected outputs in
  Printf.printf "workload   : %s (batch=%d, seq=%d)\n" w.display batch seq;
  Printf.printf "engine     : fused executor (%s plan)\n" profile.name;
  if ok then begin
    let t_interp = time_best (fun () -> Eval.run reference args) in
    let t_exec = time_best (fun () -> Engine.run eng args) in
    let s = Engine.stats eng in
    let pc = Array.map2 ( - ) (pool_counters ()) p0 in
    Printf.printf "interpreter: %8.1f us per run\n" (1e6 *. t_interp);
    Printf.printf "engine     : %8.1f us per run (%.2fx)\n" (1e6 *. t_exec)
      (t_interp /. t_exec);
    Printf.printf
      "stats      : groups=%d donations=%d pool=%d/%d par-loops=%d \
       vector-loops=%d batched=%d\n"
      s.Scheduler.groups s.Scheduler.donations
      s.Scheduler.pool_reused
      (s.Scheduler.pool_fresh + s.Scheduler.pool_reused)
      s.Scheduler.parallel_loops_run s.Scheduler.vector_loops
      s.Scheduler.batched_loops;
    Printf.printf "loop arms  : batched=%d native=%d\n"
      s.Scheduler.loops_pinned_batched s.Scheduler.native_loops;
    Printf.printf
      "jit        : %s — %d groups armed, %d native runs, %d fallbacks, \
       isa %s\n"
      (Jit.mode_to_string config.Config.jit)
      s.Scheduler.cjit_groups s.Scheduler.cjit_runs s.Scheduler.jit_fallbacks
      (Jit.isa ());
    Printf.printf
      "domains    : %d lanes, %d dispatches, %d worker tasks, %d caller \
       tasks, %d sequential (grain=%d nested=%d disabled=%d)\n"
      s.Scheduler.pool_lanes pc.(0) pc.(1) pc.(2) pc.(3) pc.(4) pc.(5) pc.(6);
    let c = Compiler_profile.cache_snapshot () in
    Printf.printf "cache      : %d hits, %d misses, %d evictions (%d resident)\n"
      c.Compiler_profile.cache_hits c.Compiler_profile.cache_misses
      c.Compiler_profile.cache_evictions (Engine.cache_size ());
    Printf.printf "reference  : outputs MATCH the eager semantics\n";
    `Ok ()
  end
  else begin
    Printf.printf "reference  : outputs DIVERGE (bug!)\n";
    `Error (false, "outputs diverged")
  end

(* With [--trace FILE] the span tracer records the whole command —
   lowering, prepare stages, per-kernel launches, pool dispatches — and
   the Chrome trace-event JSON is written at the end, loadable in
   Perfetto (https://ui.perfetto.dev) or chrome://tracing. *)
let with_trace trace k =
  match trace with
  | None -> k ()
  | Some path ->
      Tracer.enable ();
      let result = k () in
      Tracer.write_chrome path;
      Printf.printf
        "trace      : %d events written to %s (%d dropped by ring wrap); \
         load in Perfetto or chrome://tracing\n"
        (List.length (Tracer.events ()))
        path (Tracer.dropped ());
      result

let run_cmd =
  let engine_arg =
    Arg.(
      value & opt string "trace"
      & info [ "e"; "engine" ] ~docv:"ENGINE"
          ~doc:
            "Execution engine: $(b,trace) replays the graph under the \
             analytic cost model; $(b,exec) runs the fused executor and \
             reports measured wall-clock against the interpreter.")
  in
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a span trace of the whole run and write Chrome \
             trace-event JSON to $(docv) (open in Perfetto or \
             chrome://tracing).")
  in
  let run name pipeline engine trace batch seq =
    match (Functs.find_workload name, Functs.find_profile pipeline) with
    | Error e, _ | _, Error e -> fail e
    | Ok w, Ok profile -> (
        let batch, seq = scales w batch seq in
        match engine with
        | "trace" -> with_trace trace (fun () -> run_trace w profile batch seq)
        | "exec" -> with_trace trace (fun () -> run_exec w profile batch seq)
        | other ->
            `Error
              ( false,
                Printf.sprintf "unknown engine %S (try: trace, exec)" other ))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a workload under a pipeline and report costs.")
    Term.(
      ret (const run $ workload_arg $ pipeline_arg $ engine_arg $ trace_arg
           $ batch_arg $ seq_arg))

(* --- build: compile a source file --- *)

let build_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let functionalize_flag =
    Arg.(
      value & flag
      & info [ "no-functionalize" ] ~doc:"Stop after lowering to graph IR.")
  in
  let run file no_functionalize =
    match
      try Ok (Source_parser.parse_file file) with
      | Source_parser.Syntax_error msg ->
          Error (Error.Parse_error { source = file; message = msg })
      | Sys_error msg -> Error (Error.Io_error msg)
    with
    | Error e -> fail e
    | Ok program -> (
        print_endline "=== Parsed source ===";
        print_endline (Pretty.program_to_string program);
        match
          try Ok (Lower.program program)
          with Lower.Lowering_error msg -> Error (Error.Lowering_error msg)
        with
        | Error e -> fail e
        | Ok g ->
            print_endline "=== Graph IR ===";
            print_endline (Printer.to_string g);
            if not no_functionalize then begin
              let stats, report = Passes.tensorssa_pipeline g in
              print_endline "\n=== TensorSSA form (optimized) ===";
              print_endline (Printer.to_string g);
              Printf.printf
                "\n%d mutation(s) rewritten; %d folds, %d CSE merges, %d \
                 nodes removed\n"
                stats.mutations_rewritten report.folds report.cse_merged
                report.dce_removed
            end;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Parse an imperative source file (.py-like), lower it and run the \
          TensorSSA pipeline.")
    Term.(ret (const run $ file_arg $ functionalize_flag))

(* --- kernels: emitted tensor-expression DSL --- *)

let kernels_cmd =
  let run name batch seq =
    match Functs.find_workload name with
    | Error e -> fail e
    | Ok w ->
        let batch, seq = scales w batch seq in
        let g = Workload.graph w ~batch ~seq in
        let inputs = Engine.input_shapes (w.inputs ~batch ~seq) in
        ignore (Passes.tensorssa_pipeline ~inputs g);
        let shapes = Shape_infer.infer g ~inputs in
        print_endline (Codegen.render_all g (Engine.plan g) ~shapes);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "kernels"
       ~doc:
         "Print the tensor-expression DSL of every fused kernel the engine \
          runs for a workload's TensorSSA form (4.2.1).")
    Term.(ret (const run $ workload_arg $ batch_arg $ seq_arg))

(* --- stats: the process-wide metrics registry --- *)

let stats_cmd =
  let workload_opt =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "Optional workload to execute (fused engine) before dumping, so \
             the counters have something to show.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Dump JSON instead of text.")
  in
  let runs_arg =
    Arg.(
      value & opt int 3
      & info [ "runs" ] ~docv:"N"
          ~doc:"Engine runs to execute when a workload is given.")
  in
  let run workload json runs batch seq =
    let exec_workload name =
      match Functs.find_workload name with
      | Error e -> Error e
      | Ok w ->
          let batch, seq = scales w batch seq in
          let g = Workload.graph w ~batch ~seq in
          let args = w.inputs ~batch ~seq in
          ignore
            (Passes.tensorssa_pipeline ~inputs:(Engine.input_shapes args) g);
          let eng = prepare_engine g args in
          for _ = 1 to max 1 runs do
            ignore (Engine.run eng args)
          done;
          Ok ()
    in
    match Option.fold ~none:(Ok ()) ~some:exec_workload workload with
    | Error e -> fail e
    | Ok () ->
        let s = Metrics.snapshot () in
        print_string (if json then Metrics.to_json s ^ "\n" else Metrics.to_text s);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Dump the process-wide metrics registry (optionally after running a \
          workload through the fused engine).")
    Term.(
      ret (const run $ workload_opt $ json_flag $ runs_arg $ batch_arg
           $ seq_arg))

(* --- config: the resolved FUNCTS_* overlay --- *)

let config_cmd =
  let run () = print_endline (Config.to_string config) in
  Cmd.v
    (Cmd.info "config"
       ~doc:
         "Print the configuration resolved from defaults and the FUNCTS_* \
          environment overlay.")
    Term.(const run $ const ())

(* --- profile / why: latency attribution and the decision journal ---

   Both drive N requests through a serving session (so the full
   enqueue → dispatch → engine path is exercised), then read the
   observability layer back out: [profile] the per-stage latency
   histograms and the scheduler's per-group wall-time attribution,
   [why] the decision journal (which arm won each group/loop and why). *)

(* An attribution row's site and its op names: "group#3 [matmul]". *)
let site_label (r : Scheduler.attribution_row) =
  Printf.sprintf "%s#%d [%s]"
    (match r.Scheduler.at_kind with `Group -> "group" | `Loop -> "loop")
    r.Scheduler.at_id
    (String.concat ", " r.Scheduler.at_ops)

(* GC work over the served requests: collection counts are deltas, heap
   sizes (in words) their values at the end, and [minor_words] /
   [major_words] the words allocated per request.  Both snapshots follow
   a [Gc.minor ()]: under OCaml 5 [Gc.quick_stat] sees another domain's
   allocation counters only as sampled at its last minor collection, and
   a forced one samples a dispatcher domain too.  The window's
   collection counts include that final forced minor collection. *)
let gc_rows ~runs (before : Gc.stat) (after : Gc.stat) =
  let per_request words =
    int_of_float (Float.round ((words after -. words before) /. float_of_int runs))
  in
  [
    ("minor_collections", after.minor_collections - before.minor_collections);
    ("major_collections", after.major_collections - before.major_collections);
    ("heap_words", after.heap_words);
    ("top_heap_words", after.top_heap_words);
    ("minor_words", per_request (fun (s : Gc.stat) -> s.minor_words));
    ("major_words", per_request (fun (s : Gc.stat) -> s.major_words));
  ]

(* The cold path: [Session.create]'s wall-clock in ms; the time from
   the start of create until the last group armed (the create time when
   nothing armed), waiting for a background JIT compile; and how far
   both moved the JIT artifact counters (a cold artifact directory
   compiles once per distinct unit; the other engines hit) and the
   engine-run counter (0: create runs no engine).  The requests are served
   after the wait, on armed engines. *)
let setup_counters = [ "jit.c.compiles"; "jit.c.hit"; "jit.c.miss"; "exec.runs" ]

type setup = {
  create_ms : float;
  armed_ms : float;
  deltas : (string * int) list;
}

let serve_requests (w : Workload.t) ~runs ~batch ~seq =
  let count name = Metrics.value (Metrics.counter name) in
  let c0 = List.map count setup_counters in
  let t0 = Unix.gettimeofday () in
  match Session.create ~config w ~batch ~seq with
  | Error e -> Error e
  | Ok session ->
      let created = Unix.gettimeofday () in
      let armed = Option.value (Session.await_jit session) ~default:created in
      let setup =
        {
          create_ms = 1e3 *. (created -. t0);
          armed_ms = 1e3 *. (armed -. t0);
          deltas = List.map2 (fun n c -> (n, count n - c)) setup_counters c0;
        }
      in
      let args = w.Workload.inputs ~batch ~seq in
      Gc.minor ();
      let gc0 = Gc.quick_stat () in
      let rec go i =
        if i >= runs then begin
          Gc.minor ();
          Ok (session, gc_rows ~runs gc0 (Gc.quick_stat ()), setup)
        end
        else
          match Session.run session args with
          | Ok _ -> go (i + 1)
          | Error e ->
              Session.close session;
              Error e
      in
      go 0

let stage_names = [ "queue_wait"; "batch"; "exec"; "total" ]

let stage_windows before after =
  List.map
    (fun s ->
      let name = Printf.sprintf "serve.latency.%s_us" s in
      let get snap =
        Option.value (Metrics.hstat_of snap name) ~default:Metrics.hstat_zero
      in
      (s, Metrics.diff ~before:(get before) ~after:(get after)))
    stage_names

let profile_cmd =
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of a table.")
  in
  let runs_arg =
    Arg.(
      value & opt int 32
      & info [ "runs" ] ~docv:"N"
          ~doc:"Requests to serve before reading the attribution (≥ 1).")
  in
  let run name json runs batch seq =
    match Functs.find_workload name with
    | Error e -> fail e
    | Ok w -> (
        let batch, seq = scales w batch seq in
        let runs = max 1 runs in
        let m0 = Metrics.snapshot () in
        match serve_requests w ~runs ~batch ~seq with
        | Error e -> fail e
        | Ok (session, gc, setup) ->
            let m1 = Metrics.snapshot () in
            let stages = stage_windows m0 m1 in
            let rows = Session.attribution session in
            (* requests per engine run -> runs: a lone caller's requests
               each run at b1 *)
            let buckets =
              List.sort compare (Session.stats session).Session.bucket_runs
              |> List.map (fun (k, n) -> (Printf.sprintf "b%d" k, n))
            in
            Session.close session;
            let total_attr =
              List.fold_left
                (fun acc r -> acc +. r.Scheduler.at_time_s)
                0. rows
            in
            if json then begin
              let stage_json (s, h) =
                ( s,
                  Json.Obj
                    [
                      ("count", Json.Num (float_of_int h.Metrics.h_count));
                      ("p50_us", Json.Num (Metrics.percentile h 0.50));
                      ("p90_us", Json.Num (Metrics.percentile h 0.90));
                      ("p99_us", Json.Num (Metrics.percentile h 0.99));
                      ("mean_us", Json.Num (Metrics.mean h));
                    ] )
              in
              let row_json (r : Scheduler.attribution_row) =
                Json.Obj
                  [
                    ("id", Json.Num (float_of_int r.Scheduler.at_id));
                    ( "kind",
                      Json.Str
                        (match r.Scheduler.at_kind with
                        | `Group -> "group"
                        | `Loop -> "loop") );
                    ("arm", Json.Str r.Scheduler.at_arm);
                    ("members", Json.Num (float_of_int r.Scheduler.at_members));
                    ( "ops",
                      Json.Arr
                        (List.map (fun o -> Json.Str o) r.Scheduler.at_ops) );
                    ("time_us", Json.Num (1e6 *. r.Scheduler.at_time_s));
                    ("launches", Json.Num (float_of_int r.Scheduler.at_launches));
                  ]
              in
              print_endline
                (Json.to_string
                   (Json.Obj
                      [
                        ("workload", Json.Str name);
                        ("requests", Json.Num (float_of_int runs));
                        ( "buckets",
                          Json.Obj
                            (List.map
                               (fun (k, n) -> (k, Json.Num (float_of_int n)))
                               buckets) );
                        ( "setup",
                          Json.Obj
                            (("create_ms", Json.Num setup.create_ms)
                            :: ("armed_ms", Json.Num setup.armed_ms)
                            :: List.map
                                 (fun (k, n) -> (k, Json.Num (float_of_int n)))
                                 setup.deltas) );
                        ("stages", Json.Obj (List.map stage_json stages));
                        ( "gc",
                          Json.Obj
                            (List.map
                               (fun (k, n) -> (k, Json.Num (float_of_int n)))
                               gc) );
                        ("groups", Json.Arr (List.map row_json rows));
                      ]))
            end
            else begin
              Printf.printf "profile    : %s, %d requests served\n" name runs;
              Printf.printf "buckets    : %s\n"
                (String.concat ", "
                   (List.map
                      (fun (k, n) -> Printf.sprintf "%d runs at %s" n k)
                      buckets));
              Printf.printf "setup      : %.0f ms create, %.0f ms armed%s\n\n"
                setup.create_ms setup.armed_ms
                (String.concat ""
                   (List.map
                      (fun (k, n) -> Printf.sprintf "  %s %+d" k n)
                      setup.deltas));
              Printf.printf "%-11s %10s %10s %10s %8s\n" "stage" "p50_us"
                "p90_us" "p99_us" "n";
              List.iter
                (fun (s, h) ->
                  Printf.printf "%-11s %10.0f %10.0f %10.0f %8d\n" s
                    (Metrics.percentile h 0.50) (Metrics.percentile h 0.90)
                    (Metrics.percentile h 0.99) h.Metrics.h_count)
                stages;
              print_newline ();
              List.iter (fun (k, n) -> Printf.printf "gc.%-18s %12d\n" k n) gc;
              print_newline ();
              Printf.printf "%-9s %8s %10s %9s %6s  %s\n" "arm" "members"
                "time_ms" "launches" "share" "site";
              List.iter
                (fun (r : Scheduler.attribution_row) ->
                  Printf.printf "%-9s %8d %10.2f %9d %5.1f%%  %s\n"
                    r.Scheduler.at_arm r.Scheduler.at_members
                    (1e3 *. r.Scheduler.at_time_s)
                    r.Scheduler.at_launches
                    (100. *. r.Scheduler.at_time_s
                    /. Float.max 1e-12 total_attr)
                    (site_label r))
                rows
            end;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Serve a workload and report per-stage latency percentiles (from \
          the in-process histograms) plus per-kernel-group wall-time \
          attribution.")
    Term.(
      ret (const run $ workload_arg $ json_flag $ runs_arg $ batch_arg
           $ seq_arg))

let why_cmd =
  let runs_arg =
    Arg.(
      value & opt int 48
      & info [ "runs" ] ~docv:"N"
          ~doc:
            "Requests to serve before replaying the journal.")
  in
  let run name runs batch seq =
    match Functs.find_workload name with
    | Error e -> fail e
    | Ok w -> (
        let batch, seq = scales w batch seq in
        let mark = Journal.recorded () in
        match serve_requests w ~runs:(max 1 runs) ~batch ~seq with
        | Error e -> fail e
        | Ok (session, _, _) ->
            let entries =
              (* only this command's window; earlier entries (other
                 sessions in this process) are not about this workload *)
              let all = Journal.entries () in
              let skip = max 0 (mark - Journal.dropped ()) in
              List.filteri (fun i _ -> i >= skip) all
            in
            Printf.printf "why        : %s — %d decisions during %d requests\n\n"
              name (List.length entries) (max 1 runs);
            List.iter
              (fun e -> print_endline (Journal.entry_to_text e))
              entries;
            print_newline ();
            Printf.printf "arms (by accumulated wall time):\n";
            List.iter
              (fun (r : Scheduler.attribution_row) ->
                Printf.printf "  %s -> %s (%d launches, %.2f ms total)\n"
                  (site_label r) r.Scheduler.at_arm r.Scheduler.at_launches
                  (1e3 *. r.Scheduler.at_time_s))
              (Session.attribution session);
            Session.close session;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Serve a workload, then replay the decision journal: the arm \
          each loop site's rule gave it, the serve bucket and dispatcher \
          choices, JIT arming and demotion, cache eviction and deadline \
          degradation, plus each site's arm and its time.")
    Term.(ret (const run $ workload_arg $ runs_arg $ batch_arg $ seq_arg))

(* --- report --- *)

let report_cmd =
  let reports = Functs_harness.Figures.reports in
  let figures =
    Arg.(
      value & pos_all string [ "fig5"; "fig6"; "headline" ]
      & info [] ~docv:"FIGURE"
          ~doc:
            "Figures to regenerate: fig5 fig6 fig7 fig8 headline ablation, \
             or fig5.csv / fig6.csv for machine-readable output.")
  in
  let run picks =
    List.iter
      (fun pick ->
        match List.assoc_opt (String.lowercase_ascii pick) reports with
        | Some render -> print_endline (render ())
        | None ->
            Printf.eprintf "unknown figure %S (try: %s)\n" pick
              (String.concat ", " (List.map fst reports)))
      picks
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the paper's evaluation tables.")
    Term.(const run $ figures)

let () =
  let doc = "TensorSSA: holistic functionalization of imperative tensor programs" in
  let info = Cmd.info "functs" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; show_cmd; compile_cmd; run_cmd; build_cmd; kernels_cmd;
         stats_cmd; config_cmd; profile_cmd; why_cmd;
         report_cmd ]))
