(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Fig. 5-8 plus the 5.2 headline), then times the compiler
   stages behind each figure with Bechamel (one Test.make per figure).

   The [exec] target instead measures wall-clock execution: every workload
   through the reference interpreter, the sequential fused engine, its
   native-JIT arm, and the iteration-batched engine at 1, 2 and 4 lanes,
   reporting the ratios.

   Usage:
     dune exec bench/main.exe [-- fig5|fig6|fig7|fig8|headline|ablation|micro|exec]
   With no argument everything runs.  Unknown targets exit non-zero.

   [exec] writes machine-readable results to BENCH_exec.json (per-workload
   best-of-N wall-clock, pool dispatch overhead vs Domain.spawn/join,
   cold/warm compile-cache timings, the cold JIT compile into an empty
   artifact directory, a cold JIT-off [Session.create] (median of 5 with
   min/max, and the engine runs it made: none), and per-call GEMM time for every matmul shape the
   workloads hit).  [exec --smoke] only checks that every
   workload's engine outputs match the interpreter — no timing, no JSON. *)

open Bechamel
open Functs

(* Resolve the FUNCTS_* overlay once; everything below takes the typed
   config explicitly (a malformed variable aborts, never falls back). *)
let config =
  match Functs.init () with
  | Ok cfg -> cfg
  | Error e ->
      prerr_endline ("bench: " ^ Error.to_string e);
      exit 2

let figure name = List.assoc name Functs_harness.Figures.reports ()

let all_targets =
  [ "fig5"; "fig6"; "fig7"; "fig8"; "headline"; "ablation"; "micro"; "exec" ]

(* Flags are stripped before target validation. *)
let raw_picks =
  match Array.to_list Sys.argv with _ :: picks -> picks | [] -> []

let smoke_mode = List.mem "--smoke" raw_picks

let selected () =
  match List.filter (fun p -> p <> "--smoke") raw_picks with
  | _ :: _ as picks -> (
      match List.filter (fun p -> not (List.mem p all_targets)) picks with
      | [] -> picks
      | bad ->
          Printf.eprintf "unknown target%s: %s\nvalid targets: %s\n"
            (if List.length bad > 1 then "s" else "")
            (String.concat ", " bad)
            (String.concat ", " all_targets);
          exit 2)
  | [] -> all_targets

let wants what = List.mem what (selected ())

(* --- Bechamel micro-benchmarks: the compiler work behind each figure --- *)

let workload_graphs () =
  List.map
    (fun (w : Workload.t) ->
      Workload.graph w ~batch:w.default_batch ~seq:w.default_seq)
    Registry.all

let functionalized_graphs () =
  List.map
    (fun g ->
      let g = Graph.clone g in
      ignore (Convert.functionalize g);
      g)
    (workload_graphs ())

(* Fig. 5 is driven by the full TensorSSA conversion of every workload. *)
let bench_fig5 graphs =
  Test.make ~name:"fig5/tensorssa-conversion"
    (Staged.stage (fun () ->
         List.iter
           (fun g ->
             let g = Graph.clone g in
             ignore (Convert.functionalize ~verify:false g))
           graphs))

(* Fig. 6 counts kernels, i.e. fusion planning on functionalized graphs. *)
let bench_fig6 graphs =
  Test.make ~name:"fig6/fusion-planning"
    (Staged.stage (fun () ->
         List.iter
           (fun g -> ignore (Fusion.plan Compiler_profile.tensorssa g))
           graphs))

(* Fig. 7 scales batch: time the traced execution of SSD at batch 4. *)
let bench_fig7 () =
  let w = Option.get (Registry.find "ssd") in
  let g = Workload.graph w ~batch:4 ~seq:w.default_seq in
  ignore (Convert.functionalize g);
  let plan = Fusion.plan Compiler_profile.tensorssa g in
  let args = w.inputs ~batch:4 ~seq:w.default_seq in
  Test.make ~name:"fig7/traced-exec-ssd-batch4"
    (Staged.stage (fun () ->
         ignore
           (Trace.run ~profile:Compiler_profile.tensorssa ~plan g
              args)))

(* Cleanup pipeline (constant folding + CSE + DCE) on functionalized
   graphs — the optimization pass suite beyond the conversion itself. *)
let bench_passes graphs =
  Test.make ~name:"passes/fold-cse-dce"
    (Staged.stage (fun () ->
         List.iter
           (fun g -> ignore (Passes.optimize (Graph.clone g)))
           graphs))

(* Tensor-expression codegen over every workload's fused kernels. *)
let bench_codegen () =
  let prepared =
    List.map
      (fun (w : Workload.t) ->
        let g = Workload.graph w ~batch:w.default_batch ~seq:w.default_seq in
        ignore (Convert.functionalize g);
        let plan = Fusion.plan Compiler_profile.tensorssa g in
        let args = w.inputs ~batch:w.default_batch ~seq:w.default_seq in
        let inputs =
          List.map
            (function
              | Value.Tensor t ->
                  Some (Shape_infer.known (Tensor.shape t))
              | _ -> None)
            args
        in
        (g, plan, Shape_infer.infer g ~inputs))
      Registry.all
  in
  Test.make ~name:"codegen/emit-all-workloads"
    (Staged.stage (fun () ->
         List.iter
           (fun (g, plan, shapes) -> ignore (Codegen.emit g plan ~shapes))
           prepared))

(* Fig. 8 scales sequence length: traced execution of NASRNN at seq 128. *)
let bench_fig8 () =
  let w = Option.get (Registry.find "nasrnn") in
  let g = Workload.graph w ~batch:1 ~seq:128 in
  ignore (Convert.functionalize g);
  let plan = Fusion.plan Compiler_profile.tensorssa g in
  let args = w.inputs ~batch:1 ~seq:128 in
  Test.make ~name:"fig8/traced-exec-nasrnn-seq128"
    (Staged.stage (fun () ->
         ignore
           (Trace.run ~profile:Compiler_profile.tensorssa ~plan g
              args)))

let run_micro () =
  let graphs = workload_graphs () in
  let fgraphs = functionalized_graphs () in
  let tests =
    Test.make_grouped ~name:"functs"
      [
        bench_fig5 graphs;
        bench_fig6 fgraphs;
        bench_passes fgraphs;
        bench_codegen ();
        bench_fig7 ();
        bench_fig8 ();
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  print_endline "Micro-benchmarks (monotonic clock, ns per run):";
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%12.0f ns" e
        | Some [] | None -> "           ?"
      in
      Printf.printf "  %-40s %s\n" name estimate)
    results;
  print_newline ()

(* --- exec: measured wall-clock of the fused execution engine --- *)

(* Best round of an adaptive number of timed rounds, measured PAIRED: every
   round times one run of every arm back to back, so a transient
   machine-level slowdown (CPU steal on a shared host, a background
   daemon) taxes all arms instead of whichever one happened to be under
   the clock — per-arm sequential timing made d2-vs-d4 comparisons flip
   sign run to run.  Each arm reports its best round: timing noise on a
   shared host is strictly additive (steal bursts, GC, daemons only ever
   slow a run down), so the minimum is the robust estimate of true cost;
   medians still carried enough burst contamination to flip the
   d2-vs-d4 comparison between runs. *)
let time_best ?(warmup = 12) fs =
  let n = Array.length fs in
  (* warm-up: fills the storage pool and primes caches *)
  Array.iter
    (fun f ->
      for _ = 1 to warmup do
        ignore (f ())
      done)
    fs;
  let once f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let first = Array.map once fs in
  let slowest = Array.fold_left Float.max 1e-6 first in
  (* Sub-millisecond arms are dominated by scheduling jitter one run at
     a time; batch each of their rounds to ~2ms of work and report the
     per-run average, so a round's jitter is amortized before the
     cross-round minimum is taken. *)
  let reps =
    Array.map
      (fun t -> max 1 (int_of_float (Float.ceil (0.002 /. Float.max t 1e-6))))
      first
  in
  let runs = max 7 (min 63 (int_of_float (0.6 /. slowest))) in
  let samples = Array.init n (fun _ -> Array.make runs 0.) in
  (* Rotate which arm opens each round: with a fixed order, any bias
     tied to position within the round (GC debt from the previous arm,
     timer aliasing) would always tax the same arms. *)
  for r = 0 to runs - 1 do
    for idx = 0 to n - 1 do
      let i = (idx + r) mod n in
      let k = reps.(i) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to k do
        ignore (fs.(i) ())
      done;
      samples.(i).(r) <- (Unix.gettimeofday () -. t0) /. float_of_int k
    done
  done;
  Array.map (fun s -> Array.fold_left Float.min s.(0) s) samples

(* Per-dispatch overhead: the persistent pool's parallel_for against a
   fresh Domain.spawn/join pair doing the same (empty) 2-chunk split —
   the regime PR 1 ran every horizontal loop in. *)
let dispatch_overhead () =
  let pool = Pool.shared ~lanes:2 in
  let body _ _ = () in
  let iters = 500 in
  let timed f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  let pool_us =
    timed (fun () -> ignore (Pool.parallel_for pool ~grain:1 ~n:2 body))
  in
  let spawn_us =
    timed (fun () ->
        let d = Domain.spawn (fun () -> body 1 2) in
        body 0 1;
        Domain.join d)
  in
  (pool_us, spawn_us)

(* Every matmul shape the registry's workloads hit, timed on its own:
   lstm's recurrent product at batch 1, 4 and 16, yolact's mask
   product, attention's two matrix-vector products at t = 63, and a
   square case.  Each call runs single-threaded into a preallocated
   output, as a pooled engine run makes it; a row reports the best-of-N
   time per call and the achieved GFLOP/s (2 m k n flops). *)
type gemm_row = {
  g_name : string;
  g_mkn : int * int * int;
  g_call_s : float;
}

let gemm_shapes =
  [
    ("lstm_b1", [| 1; 128 |], [| 128; 512 |]);
    ("lstm_b4", [| 4; 128 |], [| 128; 512 |]);
    ("lstm_b16", [| 16; 128 |], [| 128; 512 |]);
    ("yolact", [| 1024; 32 |], [| 32; 16 |]);
    ("attention_scores", [| 64; 64 |], [| 64 |]);
    ("attention_mix", [| 64 |], [| 64; 64 |]);
    ("square64", [| 64; 64 |], [| 64; 64 |]);
  ]

let bench_gemm () =
  let module F = Functs_exec.Fastops in
  let state = Random.State.make [| 5 |] in
  List.map
    (fun (name, sa, sb) ->
      let a = Tensor.rand state sa and b = Tensor.rand state sb in
      let out = ref None in
      let alloc shape =
        match !out with
        | Some t -> t
        | None ->
            let t = Tensor.zeros shape in
            out := Some t;
            t
      in
      let t =
        (time_best ~warmup:20 [| (fun () -> F.matmul ~alloc a b) |]).(0)
      in
      let m = if Array.length sa = 2 then sa.(0) else 1 in
      let n = if Array.length sb = 2 then sb.(1) else 1 in
      { g_name = name; g_mkn = (m, sa.(Array.length sa - 1), n); g_call_s = t })
    gemm_shapes

let gemm_gflops r =
  let m, k, n = r.g_mkn in
  2. *. float_of_int (m * k * n) /. r.g_call_s *. 1e-9

(* Every engine the bench times is armed: a prepare that started a
   background JIT compile waits for it ([Engine.await_jit]), so a cold
   prepare still means "time to an armed engine". *)
let armed eng =
  Engine.await_jit eng;
  eng

(* Cold vs warm [Engine.prepare]: the cold call lowers from scratch (the
   cache was just cleared), the warm one must come back from the compile
   cache.  Measured per call — warm is a digest + hashtable probe. *)
let prepare ?(domains = config.Config.domains) ~parallel fg ~inputs =
  armed
    (Engine.prepare ~parallel ~domains ~loop_grain:config.Config.loop_grain
       ~kernel_grain:config.Config.kernel_grain ~cache:config.Config.cache
       ~jit:config.Config.jit ~jit_dir:config.Config.jit_dir fg ~inputs)

(* The JIT arm always measures, whatever FUNCTS_JIT says (per-group
   graceful fallback keeps it safe everywhere). *)
let prepare_jit ?(cache = config.Config.cache)
    ?(jit_dir = config.Config.jit_dir) fg ~inputs =
  armed
    (Engine.prepare ~parallel:false ~domains:config.Config.domains
       ~loop_grain:config.Config.loop_grain
       ~kernel_grain:config.Config.kernel_grain ~cache ~jit:Jit.Auto ~jit_dir
       fg ~inputs)

(* The cold JIT compile a fresh replica pays on a fresh machine: the
   JIT arm's prepare with the compile cache off, after dropping the
   in-process artifact memo, into an empty artifact directory (deleted
   afterwards), so every kernel goes through [cc]; the time runs until
   the engine is armed (prepare plus the wait for its background
   compile).  Returns wall seconds and the [jit.c.compiles] delta. *)
let jit_compiles = Metrics.counter "jit.c.compiles"

let cold_jit fg ~inputs =
  let dir = Filename.temp_dir "functs-bench-jit" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
        (try Sys.readdir dir with _ -> [||]);
      try Unix.rmdir dir with _ -> ())
    (fun () ->
      Jit.clear_loaded ();
      let c0 = Metrics.value jit_compiles in
      let t0 = Unix.gettimeofday () in
      ignore (prepare_jit ~cache:false ~jit_dir:dir fg ~inputs);
      (Unix.gettimeofday () -. t0, Metrics.value jit_compiles - c0))

(* The cold [Session.create] a fresh replica pays with the JIT off: the
   compile cache is cleared before each of [create_samples] creates, so
   every one lowers and compiles its engines from scratch.  Returns the
   sorted wall times and the engine runs the [exec.runs] counter saw
   during one create (none: create runs no engine). *)
let exec_runs = Metrics.counter "exec.runs"
let create_samples = 5

let cold_create (w : Workload.t) =
  let config = { config with Config.jit = Jit.Off } in
  let sample () =
    Engine.clear_cache ();
    let r0 = Metrics.value exec_runs in
    let t0 = Unix.gettimeofday () in
    match Session.create ~config w with
    | Error e -> failwith (Error.to_string e)
    | Ok s ->
        let dt = Unix.gettimeofday () -. t0 in
        let runs = Metrics.value exec_runs - r0 in
        Session.close s;
        (dt, runs)
  in
  let samples = List.init create_samples (fun _ -> sample ()) in
  (List.sort compare (List.map fst samples), snd (List.hd samples))

let prepare_times ~parallel fg ~inputs =
  Engine.clear_cache ();
  let stamp f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let cold, _ = stamp (fun () -> prepare ~parallel fg ~inputs) in
  let warm, eng = stamp (fun () -> prepare ~parallel fg ~inputs) in
  (cold, warm, eng)

(* The C unit's shape for this engine's plan, over the kernels the
   emitter accepts: temporaries that still get a buffer (the buffers
   beyond its read sites and stored outputs), loop nests, and stored
   copies (a stored output that is a bare read of a kernel input). *)
let c_unit fg ~inputs =
  let shapes = Shape_infer.infer fg ~inputs in
  List.fold_left
    (fun (temps, nests, copies) (k : Codegen.kernel) ->
      match Functs_jit.Jit_emit.emit k ~shapes with
      | Error _ -> (temps, nests, copies)
      | Ok em ->
          let computed (v : Graph.value) =
            List.exists
              (fun (s : Codegen.statement) -> s.s_out.Graph.v_id = v.Graph.v_id)
              k.k_stmts
          in
          let copy (s : Codegen.statement) =
            match s.s_expr with
            | Codegen.Cread (v, _) -> s.s_store && not (computed v)
            | _ -> false
          in
          let stored =
            Array.fold_left
              (fun n (s : Functs_jit.Jit_emit.estmt) ->
                if s.e_store then n + 1 else n)
              0 em.e_stmts
          in
          ( temps + Functs_jit.Jit_emit.nbufs em - Array.length em.e_sites
            - stored,
            nests + Array.length em.e_nests,
            copies + List.length (List.filter copy k.k_stmts) ))
    (0, 0, 0)
    (Codegen.emit fg (Engine.plan fg) ~shapes)

(* One run with its counters.  Engine stats and the shared pool's
   counters are cumulative (and the pool counts every engine on it), so a
   per-run figure is the difference of snapshots taken around the run. *)
type counted = {
  before : Scheduler.stats;
  after : Scheduler.stats;
  pool : int array;  (* pool counter deltas, in [pool_counters] order *)
}

let pool_counters () =
  let p = Pool.shared ~lanes:config.Config.domains in
  Pool.
    [|
      dispatches p;
      worker_tasks p;
      caller_tasks p;
      seq_fallbacks p;
      fallback_grain p;
      fallback_nested p;
      fallback_disabled p;
    |]

let counted_run eng args =
  let before = Engine.stats eng and p0 = pool_counters () in
  let out = Engine.run eng args in
  let pool = Array.map2 ( - ) (pool_counters ()) p0 in
  (out, { before; after = Engine.stats eng; pool })

let ran c f = f c.after - f c.before

type wrow = {
  r_name : string;
  r_batch : int;
  r_seq : int;
  r_interp : float;
  r_fused : float;
  r_jit : float;
  r_sweep : (int * float) list; (* domains -> best wall-clock *)
  r_cold : float;
  r_warm : float;
  r_cold_jit : float;
  r_cold_jit_compiles : int;
  r_create : float list;  (* cold Session.create wall times, sorted *)
  r_create_runs : int;  (* engine runs during one create *)
  r_c_temps : int;  (* temporaries of the C unit that still get a buffer *)
  r_c_nests : int;  (* loop nests of the C unit *)
  r_c_copies : int;  (* stored outputs of the C unit that copy an input *)
  r_run : counted;  (* one untimed run of the batched engine *)
  r_jit_run : counted;  (* one untimed run of the jit engine *)
}

(* BENCH_exec.json leaves: a count, or a measurement rounded to [digits]
   decimals. *)
let int n = Json.Num (float_of_int n)
let num digits x =
  let p = 10. ** float_of_int digits in
  Json.Num (Float.round (x *. p) /. p)

(* The host a result was measured on, so a 2-core sweep is never read as
   a multicore one (scripts/check.sh skips its scaling gate below 4
   recommended domains). *)
let host_json () =
  let first_line cmd =
    match Unix.open_process_in (cmd ^ " 2>/dev/null") with
    | ic ->
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        line
    | exception Unix.Unix_error _ -> ""
  in
  Json.Obj
    [
      ("nproc", int (Option.value ~default:0 (int_of_string_opt (first_line "nproc"))));
      ("recommended_domain_count", int (Domain.recommended_domain_count ()));
      ( "cpu_model",
        Json.Str (first_line "sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo") );
      ( "cc",
        Json.Str
          (first_line
             ((if config.Config.jit_cc = "" then "cc" else config.Config.jit_cc)
             ^ " --version")) );
      ("jit_isa", Json.Str (Jit.isa ()));
    ]

let workload_json r =
  let c = r.r_run and cj = r.r_jit_run in
  let s = c.after and sj = cj.after in
  Json.Obj
    [
      ("name", Json.Str r.r_name);
      ("batch", int r.r_batch);
      ("seq", int r.r_seq);
      ("interp_ms", num 4 (1e3 *. r.r_interp));
      ("fused_ms", num 4 (1e3 *. r.r_fused));
      ("jit_ms", num 4 (1e3 *. r.r_jit));
      ("fused_speedup", num 3 (r.r_interp /. Float.max 1e-9 r.r_fused));
      ("jit_speedup", num 3 (r.r_fused /. Float.max 1e-9 r.r_jit));
      ("jit_groups", int sj.Scheduler.cjit_groups);
      ("jit_runs", int (ran cj (fun s -> s.Scheduler.cjit_runs)));
      ("jit_fallbacks", int sj.Scheduler.jit_fallbacks);
      ("native_loops", int sj.Scheduler.native_loops);
      ( "sweep",
        Json.Obj
          (List.map
             (fun (d, t) -> (Printf.sprintf "d%d_ms" d, num 4 (1e3 *. t)))
             r.r_sweep) );
      ("prepare_cold_ms", num 4 (1e3 *. r.r_cold));
      ("prepare_warm_ms", num 6 (1e3 *. r.r_warm));
      ("cold_jit_ms", num 1 (1e3 *. r.r_cold_jit));
      ("cold_jit_compiles", int r.r_cold_jit_compiles);
      ("create_ms", num 2 (1e3 *. List.nth r.r_create (create_samples / 2)));
      ("create_min_ms", num 2 (1e3 *. List.hd r.r_create));
      ( "create_max_ms",
        num 2 (1e3 *. List.nth r.r_create (create_samples - 1)) );
      ("create_runs", int r.r_create_runs);
      ("c_temps", int r.r_c_temps);
      ("c_nests", int r.r_c_nests);
      ("c_copies", int r.r_c_copies);
      ("kernel_runs", int (ran c (fun s -> s.Scheduler.kernel_runs)));
      ("parallel_loops", int (ran c (fun s -> s.Scheduler.parallel_loops_run)));
      ("vector_loops", int (ran c (fun s -> s.Scheduler.vector_loops)));
      ("batched_loops", int s.Scheduler.batched_loops);
      ("pool_lanes", int s.Scheduler.pool_lanes);
      ("pool_dispatches", int c.pool.(0));
      ("pool_worker_tasks", int c.pool.(1));
      ("pool_caller_tasks", int c.pool.(2));
      ("pool_seq_fallbacks", int c.pool.(3));
      ( "pool_fallbacks",
        Json.Obj
          [ ("grain", int c.pool.(4)); ("nested", int c.pool.(5)); ("disabled", int c.pool.(6)) ]
      );
    ]

let gemm_json r =
  let m, k, n = r.g_mkn in
  Json.Obj
    [
      ("name", Json.Str r.g_name);
      ("m", int m);
      ("k", int k);
      ("n", int n);
      ("call_us", num 2 (1e6 *. r.g_call_s));
      ("gflops", num 2 (gemm_gflops r));
    ]

(* One top-level member per line, and one array element per line, so a
   regenerated file diffs row by row. *)
let write_json path rows gemm (pool_us, spawn_us) =
  let c = Compiler_profile.cache_snapshot () in
  let members =
    [
      ("host", host_json ());
      ("domains", int config.Config.domains);
      ("loop_grain", int config.Config.loop_grain);
      ("kernel_grain", int config.Config.kernel_grain);
      ("dispatch_us", Json.Obj [ ("pool", num 3 pool_us); ("spawn_join", num 3 spawn_us) ]);
      ("workloads", Json.Arr (List.map workload_json rows));
      ("gemm", Json.Arr (List.map gemm_json gemm));
      ( "cache",
        Json.Obj
          [
            ("hits", int c.Compiler_profile.cache_hits);
            ("misses", int c.Compiler_profile.cache_misses);
            ("evictions", int c.Compiler_profile.cache_evictions);
            ("resident", int (Engine.cache_size ()));
          ] );
      ( "metrics",
        Result.get_ok (Json.parse (Metrics.to_json (Metrics.snapshot ()))) );
    ]
  in
  let member (k, v) =
    Printf.sprintf "  \"%s\": %s" (Json.escape k)
      (match v with
      | Json.Arr items ->
          "[\n    " ^ String.concat ",\n    " (List.map Json.to_string items) ^ "\n  ]"
      | v -> Json.to_string v)
  in
  let oc = open_out path in
  output_string oc ("{\n" ^ String.concat ",\n" (List.map member members) ^ "\n}\n");
  close_out oc

let sweep_domains = [ 1; 2; 4 ]

let run_exec () =
  let ok = ref true in
  let rows = ref [] in
  if smoke_mode then
    print_endline "Execution engine smoke check (no timing):"
  else begin
    print_endline
      "Execution engine: interpreter vs sequential fused vs batched (best \
       wall-clock per run; d1/d2/d4 batch at 1/2/4 worker lanes)";
    Printf.printf "  %-10s %11s %11s %11s %8s %8s %9s %9s %9s\n"
      "workload" "interp(ms)" "seq(ms)" "jit(ms)" "seq x" "jit x" "d1(ms)"
      "d2(ms)" "d4(ms)"
  end;
  (* The interpreter is timed for every workload before any engine is
     prepared.  The d2/d4 sweep below spawns the shared pool's worker
     domains, which stay parked for the rest of the process, and every
     minor collection is a stop-the-world across all domains: on one
     pinned CPU each parked domain must be scheduled in to take part.
     The interpreter allocates the most, so timed after the first sweep
     it read several times its own time (yolact, best of 10 runs pinned:
     17-18 ms alone, 25-28 ms beside a 2-lane pool, 46-49 ms beside a
     4-lane one, about 600 minor and 5-8 major collections in each
     case).  Its absolute scale is all the report needs, so it gets its
     own short measurement: one to two orders slower than any engine
     arm, timing it inside the paired set would cap every arm at a
     handful of rounds. *)
  let workloads =
    List.map
      (fun (w : Workload.t) ->
        let batch = w.default_batch and seq = w.default_seq in
        let g = Workload.graph w ~batch ~seq in
        let args = w.inputs ~batch ~seq in
        let t_interp =
          if smoke_mode then Float.nan
          else
            (time_best ~warmup:2 [| (fun () -> ignore (Eval.run g args)) |]).(0)
        in
        (w, g, args, t_interp))
      (Registry.all @ Registry.extensions)
  in
  List.iter
    (fun ((w : Workload.t), g, args, t_interp) ->
      let batch = w.default_batch and seq = w.default_seq in
      let expected = Eval.run g args in
      let fg = Graph.clone g in
      let inputs = Engine.input_shapes args in
      ignore (Passes.tensorssa_pipeline ~inputs fg);
      let eng = prepare ~parallel:false fg ~inputs in
      let engj = prepare_jit fg ~inputs in
      let _, _, engp = prepare_times ~parallel:true fg ~inputs in
      (* Every gate is the oracle rule ([Equiv.bitwise]).  A batched loop
         is gated against the sequential engine too: a loop the analysis
         calls Parallel (or an exactly-associative reduction) must
         reproduce its bits. *)
      let seq_ref = Engine.run eng args in
      let jit_out = Engine.run engj args in
      let par_out, cp = counted_run engp args in
      let nbatched = ran cp (fun s -> s.Scheduler.parallel_loops_run) in
      if
        not
          (Equiv.bitwise expected seq_ref && Equiv.bitwise expected par_out)
      then begin
        ok := false;
        Printf.printf "  %-10s ENGINE OUTPUT DIVERGED FROM INTERPRETER\n"
          w.name
      end
      else if not (Equiv.bitwise expected jit_out) then begin
        ok := false;
        Printf.printf "  %-10s JIT ENGINE DIVERGED FROM INTERPRETER\n" w.name
      end
      else if
        nbatched > 0 && not (Equiv.bitwise seq_ref par_out)
      then begin
        ok := false;
        Printf.printf
          "  %-10s PARALLELIZED LOOPS DIVERGED BITWISE FROM THE SEQUENTIAL \
           ENGINE\n"
          w.name
      end
      else if smoke_mode then begin
        Printf.printf
          "  %-10s ok parallel_loops=%d vector_loops=%d jit_groups=%d\n"
          w.name nbatched
          (ran cp (fun s -> s.Scheduler.vector_loops))
          (Engine.stats engj).Scheduler.cjit_groups
      end
      else begin
        (* Worker-lane sweep: the batched engine at 1/2/4 lanes.  Every
           lane count runs the same loop plan, so the sequential column
           vs d1 isolates the iteration-batching win and d1 vs d2/d4 the
           dispatch across lanes. *)
        let sweep_engines =
          List.map
            (fun d ->
              let e = prepare ~domains:d ~parallel:true fg ~inputs in
              let out, ce = counted_run e args in
              if not (Equiv.bitwise expected out) then begin
                ok := false;
                Printf.printf
                  "  %-10s DIVERGED FROM INTERPRETER AT domains=%d\n" w.name d
              end
              else if
                ran ce (fun s -> s.Scheduler.parallel_loops_run) > 0
                && not (Equiv.bitwise seq_ref out)
              then begin
                ok := false;
                Printf.printf
                  "  %-10s BITWISE DIVERGENCE FROM SEQUENTIAL AT domains=%d\n"
                  w.name d
              end;
              (d, e))
            sweep_domains
        in
        let meds =
          time_best
            (Array.of_list
               ([
                  (fun () -> ignore (Engine.run eng args));
                  (fun () -> ignore (Engine.run engj args));
                ]
               @ List.map
                   (fun (_, e) () -> ignore (Engine.run e args))
                   sweep_engines))
        in
        let t_fused = meds.(0) in
        let t_jit = meds.(1) in
        let sweep =
          List.mapi (fun i (d, _) -> (d, meds.(2 + i))) sweep_engines
        in
        (* Re-measure prepare now that timing runs warmed everything: the
           first prepare above also paid kernel auto-tuning samples. *)
        let t_cold, t_warm, _ = prepare_times ~parallel:true fg ~inputs in
        let t_cold_jit, cold_jit_compiles = cold_jit fg ~inputs in
        let c_temps, c_nests, c_copies = c_unit fg ~inputs in
        let _, run = counted_run engp args in
        let _, jit_run = counted_run engj args in
        let create, create_runs = cold_create w in
        let sw d = try List.assoc d sweep with Not_found -> nan in
        (* Scaling monotonicity gate: adding lanes must never cost more
           than 10% over the 2-lane time — a d4 regression means the
           runtime is burning the extra lanes on dispatch overhead
           instead of work. *)
        let d2 = sw 2 and d4 = sw 4 in
        if Float.is_finite d2 && Float.is_finite d4 && d4 > 1.1 *. d2
        then begin
          ok := false;
          Printf.printf
            "  %-10s SCALING REGRESSION: d4 %.3fms > 1.1 x d2 %.3fms\n"
            w.name (1e3 *. d4) (1e3 *. d2)
        end;
        Printf.printf
          "  %-10s %11.3f %11.3f %11.3f %8.2f %8.2f %9.3f %9.3f %9.3f\n"
          w.name (1e3 *. t_interp) (1e3 *. t_fused) (1e3 *. t_jit)
          (t_interp /. t_fused) (t_interp /. t_jit) (1e3 *. sw 1)
          (1e3 *. sw 2) (1e3 *. sw 4);
        rows :=
          {
            r_name = w.name;
            r_batch = batch;
            r_seq = seq;
            r_interp = t_interp;
            r_fused = t_fused;
            r_jit = t_jit;
            r_sweep = sweep;
            r_cold = t_cold;
            r_warm = t_warm;
            r_cold_jit = t_cold_jit;
            r_cold_jit_compiles = cold_jit_compiles;
            r_create = create;
            r_create_runs = create_runs;
            r_c_temps = c_temps;
            r_c_nests = c_nests;
            r_c_copies = c_copies;
            r_run = run;
            r_jit_run = jit_run;
          }
          :: !rows
      end)
    workloads;
  if not smoke_mode then begin
    let pool_us, spawn_us = dispatch_overhead () in
    Printf.printf
      "  dispatch overhead: pool %.1f us vs spawn/join %.1f us per 2-way \
       split\n"
      pool_us spawn_us;
    let gemm = bench_gemm () in
    List.iter
      (fun r ->
        let m, k, n = r.g_mkn in
        Printf.printf "  gemm %-16s %4dx%3dx%3d %9.2f us %7.2f GFLOP/s\n"
          r.g_name m k n (1e6 *. r.g_call_s) (gemm_gflops r))
      gemm;
    write_json "BENCH_exec.json" (List.rev !rows) gemm (pool_us, spawn_us);
    print_endline "  wrote BENCH_exec.json"
  end
  else begin
    (* The smoke gate asserts this block is present (scripts/check.sh). *)
    print_endline "  == metrics snapshot ==";
    print_string (Metrics.to_text (Metrics.snapshot ()))
  end;
  print_newline ();
  if not !ok then begin
    print_endline
      "ERROR: exec gates failed (divergence or scaling regression above)!";
    exit 1
  end

let () =
  if wants "fig5" then print_endline (figure "fig5");
  if wants "fig6" then print_endline (figure "fig6");
  if wants "fig7" then print_endline (figure "fig7");
  if wants "fig8" then print_endline (figure "fig8");
  if wants "headline" then begin
    print_endline (figure "headline");
    print_newline ()
  end;
  if wants "ablation" then print_endline (figure "ablation");
  if wants "micro" then run_micro ();
  if wants "exec" then run_exec ();
  if wants "headline" then
    if Functs_harness.Figures.all_checks_passed () then
      print_endline
        "All traced executions matched the eager reference outputs."
    else begin
      print_endline "ERROR: some traced executions diverged from reference!";
      exit 1
    end
