(* The serving benchmark's main program.  One process per run, one load
   generator, the public [Functs] API only.  perfbench/README.md says why
   each workload exists and what each metric should move.

     main.exe --workload W --seed N --seconds S --trace 0|1 --scratch DIR
              [--spans FILE]
     main.exe --setup-probe --workload W --jit-dir DIR

   The last line of standard output is the result object; the line
   before it records the host, the pinned config, the sample counts, the
   host-speed readings and the timings as measured, before scaling. *)

open Functs
open Perfbench

type workload = {
  name : string;
  program : string;  (** registry workload *)
  jit : Jit.mode;
  depth : int;  (** requests kept outstanding by the closed loop *)
  distinct : int;  (** distinct requests generated from the seed *)
  probes : int;  (** cold set-ups timed at each quarter of the window *)
}

(* nlp-batch fills the b16 bucket, so its throughput is set by the C-lane
   kernels, the GEMM stubs and scatter/gather, and its set-up is mostly
   cc.  cv-single runs every request alone at b1 with the JIT off, so its
   latency is the exec layer's per-request cost and it never calls cc.
   Set-up is sampled 1 + 4 * probes times: about 5 s each on nlp-batch,
   1 s on cv-single. *)
let workloads =
  [
    { name = "nlp-batch"; program = "lstm"; jit = Jit.Auto; depth = 32;
      distinct = 12; probes = 1 };
    { name = "cv-single"; program = "yolact"; jit = Jit.Off; depth = 1;
      distinct = 16; probes = 2 };
  ]

(* Every value pinned, none inherited from the environment.  One domain:
   with two, the loop tuner flips yolact's batched loop between inline
   and dispatch and the numbers measure the OS scheduler. *)
let config ~jit ~jit_dir : Config.t =
  {
    domains = 1;
    loop_grain = 2;
    kernel_grain = 8192;
    chunk_bytes = 0;
    cache = true;
    cache_size = 32;
    jit;
    jit_dir;
    jit_cc = "";
    trace = Config.Trace_off;
    trace_buf = 65536;
    metrics = Config.Metrics_off;
    queue_capacity = 256;
    max_batch = 8;
    batch_buckets = [ 1; 4; 16 ];
    shards = 1;
    policy = `Interp_fallback;
    journal = true;
    journal_buf = 4096;
  }

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Error.to_string e)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let ms s = 1e3 *. s
let q = Stats.quantile
let share a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let cache_misses () = (Compiler_profile.cache_snapshot ()).cache_misses

(* --- set-up --- *)

(* A cold replica: a fresh process and an empty artifact directory, so
   [setup_s] always includes every cc the JIT needs. *)
let create_session wl w ~jit_dir =
  mkdir_p jit_dir;
  if Sys.readdir jit_dir <> [||] then fail "artifact directory %s is not empty" jit_dir;
  let config = config ~jit:wl.jit ~jit_dir in
  Config.apply config;
  let sess, dt = Clock.time (fun () -> Session.create ~config w) in
  (ok_or_fail "Session.create" sess, dt)

(* The other set-up samples come from child processes of this binary, so
   each is as cold as the first. *)
let probe_setup wl ~jit_dir =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--setup-probe"; "--workload"; wl.name; "--jit-dir"; jit_dir |]
  in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim line)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> fail "set-up probe for %s failed" wl.name

(* --- the session under load --- *)

(* Replies are checked against the interpreter's outputs for the same
   request; [stages] collects the program's per-stage breakdown. *)
let system sess (reqs : Requests.request array) ~stages =
  {
    Loadgen.submit =
      (fun i ->
        match Session.submit sess (Session.input reqs.(i).Requests.args) with
        | Ok tk -> Some tk
        | Error _ -> None);
    await =
      (fun tk ->
        let r = Session.await tk in
        (match stages with
        | Some acc -> acc := Session.ticket_stages tk :: !acc
        | None -> ());
        r);
    served = Result.is_ok;
    check =
      (fun i -> function
        | Ok outs -> Requests.matches reqs.(i) outs
        | Error _ -> false);
    ticket_id = Session.ticket_id;
  }

(* Drive every bucket engine the load can reach past the scheduler's arm
   sampling before anything is timed; otherwise a bucket engine that
   rarely runs keeps re-sampling slow arms inside the window.  Requests
   queued while the dispatcher is paused land in exactly one bucket. *)
let warm_rounds = 24

let warm_buckets wl sess sys ~next =
  let attempted = ref 0 and failed = ref 0 in
  for _ = 1 to warm_rounds do
    List.iter
      (fun k ->
        Session.pause sess;
        let sent =
          List.init k (fun _ ->
              let i = next () in
              (i, sys.Loadgen.submit i))
        in
        Session.resume sess;
        List.iter
          (fun (i, tk) ->
            incr attempted;
            match tk with
            | Some tk -> if not (sys.check i (sys.await tk)) then incr failed
            | None -> incr failed)
          sent)
      (List.rev (List.filter (fun k -> k <= wl.depth) (Session.bucket_sizes sess)))
  done;
  (!attempted, !failed)

let warmup_s = 1.5

(* A served session: created cold, requests generated from the seed with
   their reference outputs, every reachable bucket warmed. *)
type served = {
  sess : Session.t;
  setup : float;
  reqs : Requests.request array;
  next : unit -> int;
  warm : int * int;  (** attempted, failed during warm-up *)
  misses0 : int;  (** compile-cache misses when set-up ended *)
}

let serve wl w ~seed ~jit_dir =
  let sess, setup = create_session wl w ~jit_dir in
  let misses0 = cache_misses () in
  let reqs =
    Requests.generate w ~batch:w.Workload.default_batch ~seq:w.Workload.default_seq
      ~seed ~distinct:wl.distinct
  in
  let next = Loadgen.cycle wl.distinct in
  let warm = warm_buckets wl sess (system sess reqs ~stages:None) ~next in
  { sess; setup; reqs; next; warm; misses0 }

let run_load ?trace ?stages wl s ~seconds ~warmup_s =
  Loadgen.closed ?trace (system s.sess s.reqs ~stages) ~depth:wl.depth ~warmup_s
    ~seconds ~next:s.next

(* --- output --- *)

let num f = Json.Num f
let int n = Json.Num (float_of_int n)

let print_result ~record ~correct ~attempted ~failed metrics =
  print_endline (Json.to_string (Json.Obj [ ("record", Json.Obj record) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", int attempted);
            ("failed", int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]))

let base_record wl w ~seed ~seconds ~attempted ~failed =
  [
    ("workload", Json.Str wl.name);
    ("program", Json.Str w.Workload.name);
    ("seed", int seed);
    ("seconds", num seconds);
    ("host", Host.record ());
    ( "config",
      Json.Arr
        (List.map
           (fun l -> Json.Str l)
           (String.split_on_char '\n'
              (Config.to_string (config ~jit:wl.jit ~jit_dir:"(fresh per set-up)")))) );
    ("attempted", int attempted);
    ("succeeded", int (attempted - failed));
    ("failed", int failed);
  ]

(* --- untraced run: the end-to-end metrics --- *)

(* The timed window is cut into slices.  Between two slices nothing is in
   flight, and the benchmark reads the host's speed ({!Calib}); every
   timing is multiplied by the factor from the readings on either side
   of it, and the record line keeps the values as measured.  After each
   quarter of the slices come the cold set-up probes, so the set-up
   samples and the load see the same stretch of the run.  Each probe is
   a child process with an empty artifact directory, timed while this
   session sits idle. *)
let slices = 12

(* Load before a slice is timed: the first slice follows the bucket
   warm-up, later ones follow a probe (whose compilers have just had the
   CPU and its caches) or only the drain of the previous slice. *)
let lead_in k ~after_probe =
  if k = 0 then warmup_s else if after_probe then 0.5 else 0.1

let end_to_end wl w ~seed ~seconds ~scratch =
  let s = serve wl w ~seed ~jit_dir:(Filename.concat scratch "jit") in
  let cal = ref (Calib.measure ()) in
  let cals = ref [ !cal ] in
  (* a reading after [f], and the factor for what [f] timed *)
  let calibrated f =
    let before = !cal in
    let x = f () in
    cal := Calib.measure ();
    cals := !cal :: !cals;
    (x, Calib.scale ~before ~after:!cal)
  in
  let n = ref 0 in
  let probe () =
    calibrated (fun () ->
        incr n;
        probe_setup wl ~jit_dir:(Filename.concat scratch (Printf.sprintf "jit-probe-%d" !n)))
  in
  let windows = ref [] and setups = ref [ (s.setup, Calib.scale ~before:!cal ~after:!cal) ] in
  let after_probe = ref false in
  for k = 0 to slices - 1 do
    let warmup_s = lead_in k ~after_probe:!after_probe in
    windows :=
      calibrated (fun () ->
          run_load wl s ~seconds:(seconds /. float_of_int slices) ~warmup_s)
      :: !windows;
    after_probe := (k + 1) mod (slices / 4) = 0;
    if !after_probe then
      for _ = 1 to wl.probes do
        setups := probe () :: !setups
      done
  done;
  let misses = cache_misses () - s.misses0 in
  Session.close s.sess;
  let windows = List.rev !windows and setups = Array.of_list (List.rev !setups) in
  let r = Loadgen.merge (List.map fst windows) in
  let scaled_windows = List.map (fun (r, f) -> Loadgen.scale f r) windows in
  let scaled = Loadgen.merge scaled_windows in
  let attempted = fst s.warm + r.attempted and failed = snd s.warm + r.failed in
  let lat = r.latency and slat = scaled.latency in
  let raw_setups = Array.map fst setups in
  let record =
    base_record wl w ~seed ~seconds ~attempted ~failed
    @ [
        ( "measured",
          Json.Obj
            [
              ("setup_s", num (Stats.median raw_setups));
              ("throughput_rps", num (Loadgen.throughput r));
              ("latency_p50_ms", num (ms (q lat 0.5)));
              ("latency_p99_ms", num (ms (Loadgen.mean_quantile (List.map fst windows) 0.99)));
            ] );
        ("latency_p99_pooled_ms", num (ms (q slat 0.99)));
        ("setup_samples_s", Json.Arr (Array.to_list (Array.map num raw_setups)));
        ("calibration_ms", Json.Arr (List.rev_map (fun c -> num (ms c)) !cals));
        ("latency_samples", int (Array.length lat));
        ("beyond_p99", int (Stats.beyond lat 0.99));
        ("warm_cache_misses", int misses);
      ]
  in
  print_result ~record ~correct:(failed = 0 && misses = 0) ~attempted ~failed
    [
      ("setup_s", "s", Stats.median (Array.map (fun (t, f) -> t *. f) setups));
      ("throughput_rps", "1/s", Loadgen.throughput scaled);
      ("latency_p50_ms", "ms", ms (q slat 0.5));
      ("latency_p99_ms", "ms", ms (Loadgen.mean_quantile scaled_windows 0.99));
      ("peak_rss_mb", "MiB", Host.peak_rss_mb ());
    ]

(* --- traced run: the per-layer metrics --- *)

let counter name = Metrics.value (Metrics.counter name)
let counters names = List.map (fun n -> (n, counter n)) names
let delta before name = counter name - List.assoc name before

(* Time [f] for at least [min_runs] runs and [budget_s], up to
   [max_runs]; return the median. *)
let median_time ?(min_runs = 5) ?(max_runs = 200) ~budget_s f =
  let samples = Stats.buf () in
  let t0 = Clock.now () in
  while
    samples.Stats.len < min_runs
    || (samples.Stats.len < max_runs && Clock.now () -. t0 < budget_s)
  do
    let (), dt = Clock.time f in
    Stats.push samples dt
  done;
  Stats.median (Stats.contents samples)

let prepare_engine ~cache ~jit ~jit_dir g ~inputs =
  let c = config ~jit ~jit_dir in
  Engine.prepare ~parallel:true ~domains:c.domains ~loop_grain:c.loop_grain
    ~kernel_grain:c.kernel_grain ~cache ~jit ~jit_dir g ~inputs

(* Engine.run called directly on a private engine: the median of warmed
   runs, plus the engine's counters over the timed runs. *)
type direct = {
  run_s : float;
  reused : int;  (** buffers served from the engine's pool *)
  fresh : int;  (** buffers freshly allocated *)
  cjit_runs : int;  (** group launches on the C lane *)
  kernel_runs : int;  (** group launches on any compiled arm *)
}

let run_direct sp eng args ~name =
  let warm = Clock.now () in
  let n = ref 0 in
  while !n < 10 || (!n < 40 && Clock.now () -. warm < 1.0) do
    ignore (Engine.run eng args);
    incr n
  done;
  let st0 = Engine.stats eng in
  let run_s =
    Spans.with_span sp name (fun () ->
        median_time ~budget_s:1.0 (fun () -> ignore (Engine.run eng args)))
  in
  let st1 = Engine.stats eng in
  let d f = f st1 - f st0 in
  {
    run_s;
    reused = d (fun s -> s.Scheduler.pool_reused);
    fresh = d (fun s -> s.Scheduler.pool_fresh);
    cjit_runs = d (fun s -> s.Scheduler.cjit_runs);
    kernel_runs = d (fun s -> s.Scheduler.kernel_runs);
  }

(* The layers, called directly and timed from the outside, over every
   bucket the session compiles.  Returns the summed time of the calls the
   session's own set-up also makes, and the metrics. *)
let layer_calls wl w sp ~seed ~buckets ~jit_dir ~warm_dir =
  let batch = w.Workload.default_batch and seq = w.Workload.default_seq in
  let timed name f = Clock.time (fun () -> Spans.with_span sp name f) in
  let args k = (Requests.generate_args w ~batch:(k * batch) ~seq ~seed ~distinct:1).(0) in
  let lowered, lower_s =
    timed "frontend.lower" (fun () ->
        List.map (fun k -> (k, Workload.graph w ~batch:(k * batch) ~seq)) buckets)
  in
  let graphs = List.map (fun (k, g) -> (k, Graph.clone g)) lowered in
  let rewritten, tensorssa_s =
    timed "core.tensorssa" (fun () ->
        List.fold_left
          (fun acc (_, g) ->
            let cs, _ = Passes.tensorssa_pipeline g in
            acc + cs.Convert.mutations_rewritten)
          0 graphs)
  in
  let plans, fusion_s =
    timed "core.fusion" (fun () ->
        List.map
          (fun (k, g) ->
            (k, g, Fusion.plan ~fence_loop_assigns:true Compiler_profile.tensorssa g))
          graphs)
  in
  let shaped =
    List.map
      (fun (k, g, plan) ->
        (k, g, plan, Shape_infer.infer g ~inputs:(Engine.input_shapes (args k))))
      plans
  in
  let kernels, codegen_s =
    timed "core.codegen" (fun () ->
        List.map (fun (k, g, plan, shapes) -> (k, shapes, Codegen.emit g plan ~shapes)) shaped)
  in
  (* the JIT gets the kernels that closure-compile, as the engine does *)
  let prepare_jit dir =
    List.concat_map
      (fun (_, shapes, ks) ->
        let ks = List.filter (fun kn -> Result.is_ok (Kernel_compile.compile kn ~shapes)) ks in
        Jit.prepare_groups ~mode:wl.jit ~dir ~kernels:ks ~shapes)
      kernels
  in
  let jit0 = counters [ "jit.compiles"; "jit.c.compiles"; "jit.c.fallback" ] in
  let entries, compile_s, reload_s =
    if wl.jit = Jit.Off then ([], 0., 0.)
    else begin
      mkdir_p jit_dir;
      Jit.clear_loaded ();
      let entries, compile_s = timed "jit.compile" (fun () -> prepare_jit jit_dir) in
      Jit.clear_loaded ();
      let _, reload_s = timed "jit.reload" (fun () -> prepare_jit jit_dir) in
      (entries, compile_s, reload_s)
    end
  in
  let _, prepare_s =
    timed "exec.prepare" (fun () ->
        List.iter
          (fun (k, g, _, _) ->
            ignore
              (prepare_engine ~cache:false ~jit:Jit.Off ~jit_dir:"" g
                 ~inputs:(Engine.input_shapes (args k))))
          shaped)
  in
  (* with the workload's JIT mode, over the artifacts the session already
     compiled: disk hits, no cc *)
  let direct k =
    match List.find_opt (fun (k', _, _, _) -> k' = k) shaped with
    | None -> { run_s = 0.; reused = 0; fresh = 0; cjit_runs = 0; kernel_runs = 0 }
    | Some (_, g, _, _) ->
        let a = args k in
        run_direct sp
          (prepare_engine ~cache:false ~jit:wl.jit ~jit_dir:warm_dir g
             ~inputs:(Engine.input_shapes a))
          a
          ~name:(Printf.sprintf "exec.run_b%d" k)
  in
  let b1 = direct 1 and b16 = direct 16 in
  let interp =
    let reference = Workload.graph w ~batch ~seq and a = args 1 in
    Spans.with_span sp "interp.run" (fun () ->
        median_time ~max_runs:30 ~budget_s:1.0 (fun () ->
            ignore (Eval.run reference (Requests.clone_args a))))
  in
  let _, _, plan1, _ = List.find (fun (k, _, _, _) -> k = 1) shaped in
  let _, _, kernels1 = List.find (fun (k, _, _) -> k = 1) kernels in
  let count n = float_of_int n in
  ( lower_s +. tensorssa_s +. prepare_s +. compile_s,
    [
      ("frontend.lower_ms", "ms", ms lower_s);
      ("core.tensorssa_ms", "ms", ms tensorssa_s);
      ("core.mutations_rewritten", "count", count rewritten);
      ("core.fusion_ms", "ms", ms fusion_s);
      ("core.groups", "count", count (List.length (Fusion.group_sizes plan1)));
      ("core.parallel_loops", "count", count (Hashtbl.length plan1.Fusion.parallel_loops));
      ("core.codegen_ms", "ms", ms codegen_s);
      ("core.kernels", "count", count (List.length kernels1));
      ("jit.compile_s", "s", compile_s);
      ("jit.c_compiles", "count", count (delta jit0 "jit.c.compiles"));
      ("jit.ml_compiles", "count", count (delta jit0 "jit.compiles"));
      ("jit.reload_ms", "ms", ms reload_s);
      ("jit.c_groups", "count", count (List.length (List.filter (fun (_, e) -> Jit.has_c e) entries)));
      ("jit.c_fallbacks", "count", count (delta jit0 "jit.c.fallback"));
      ("exec.prepare_ms", "ms", ms prepare_s);
      ("exec.run_b1_ms", "ms", ms b1.run_s);
      ("exec.run_b16_ms", "ms", ms b16.run_s);
      ( "exec.cjit_share",
        "ratio",
        share (b1.cjit_runs + b16.cjit_runs) (b1.kernel_runs + b16.kernel_runs) );
      ( "exec.pool_reuse_share",
        "ratio",
        share (b1.reused + b16.reused) (b1.reused + b16.reused + b1.fresh + b16.fresh) );
      ("interp.run_ms", "ms", ms interp);
    ] )

(* Tuner decisions in the window, from the decision journal: the window's
   records are the newest [recorded] - [recorded0]; a ring that wrapped
   inside the window would undercount, so that fails the run. *)
let tuner_counts ~recorded0 =
  let fresh = Journal.recorded () - recorded0 in
  let entries = Journal.entries () in
  let kept = List.length entries in
  if fresh > kept then
    fail "decision journal dropped %d records in the timed window" (fresh - kept);
  let window = List.filteri (fun i _ -> i >= kept - fresh) entries in
  let count k = List.length (List.filter (fun e -> e.Journal.j_kind = k) window) in
  (count Journal.Tuner_sample, count Journal.Tuner_flip, count Journal.Tuner_expire)

let stage_quantile stages name p =
  let xs = Array.of_list (List.filter_map (List.assoc_opt name) stages) in
  if Array.length xs = 0 then 0. else 1e-3 *. q xs p

let per_layer wl w ~seed ~seconds ~scratch ~spans_path =
  let sp = Spans.create () in
  let warm_dir = Filename.concat scratch "jit" in
  let s = Spans.with_span sp "serve.create" (fun () -> serve wl w ~seed ~jit_dir:warm_dir) in
  (* the run's time is split between the two windows *)
  let window = seconds /. 2. in
  let untraced = run_load wl s ~seconds:window ~warmup_s in
  (* the traced window: the same load again, with spans around every call
     into the session and the program's per-stage breakdown of each
     request *)
  let stages = ref [] in
  let st0 = Session.stats s.sess in
  let c0 = counters [ "exec.kernel_runs"; "exec.runs" ] in
  let recorded0 = Journal.recorded () in
  let traced = run_load ~trace:sp ~stages wl s ~seconds:window ~warmup_s:0. in
  let samples, flips, expiries = tuner_counts ~recorded0 in
  let st1 = Session.stats s.sess in
  let batched_loops =
    match Session.engine_stats s.sess with
    | Some st -> st.Scheduler.batched_loops
    | None -> 0
  in
  let buckets = Session.bucket_sizes s.sess in
  Session.close s.sess;
  let misses = cache_misses () - s.misses0 in
  let runs_at (st : Session.stats) k =
    Option.value (List.assoc_opt k st.Session.bucket_runs) ~default:0
  in
  let served_at k = k * (runs_at st1 k - runs_at st0 k) in
  let served = List.fold_left (fun acc k -> acc + served_at k) 0 buckets in
  let engine_runs = List.fold_left (fun acc k -> acc + runs_at st1 k - runs_at st0 k) 0 buckets in
  let layer_s, layers =
    layer_calls wl w sp ~seed ~buckets ~jit_dir:(Filename.concat scratch "jit-layers")
      ~warm_dir
  in
  Spans.write sp spans_path;
  let stages = !stages in
  let attempted = fst s.warm + untraced.attempted + traced.attempted in
  let failed = snd s.warm + untraced.failed + traced.failed in
  let record =
    base_record wl w ~seed ~seconds ~attempted ~failed
    @ [
        ("create_s", num s.setup);
        ("traced_latency_samples", int (Array.length traced.latency));
        ("spans", Json.Str spans_path);
      ]
  in
  let count n = float_of_int n in
  print_result ~record ~correct:(failed = 0 && misses = 0) ~attempted ~failed
    (layers
    @ [
        ("exec.kernel_runs", "1/run", share (delta c0 "exec.kernel_runs") (delta c0 "exec.runs"));
        ("exec.batched_loops", "count", count batched_loops);
        ("exec.tuner_samples", "count", count samples);
        ("exec.tuner_flips", "count", count flips);
        ("exec.tuner_expiries", "count", count expiries);
        ("serve.create_self_ms", "ms", ms (s.setup -. layer_s));
        ("serve.queue_wait_p50_ms", "ms", stage_quantile stages "queue_wait" 0.5);
        ("serve.queue_wait_p99_ms", "ms", stage_quantile stages "queue_wait" 0.99);
        ("serve.batch_p50_ms", "ms", stage_quantile stages "batch" 0.5);
        ("serve.exec_p50_ms", "ms", stage_quantile stages "exec" 0.5);
        ("serve.exec_p99_ms", "ms", stage_quantile stages "exec" 0.99);
        ("serve.requests_per_run", "count", share served engine_runs);
        ("serve.bucket_share.b1", "ratio", share (served_at 1) served);
        ("serve.bucket_share.b4", "ratio", share (served_at 4) served);
        ("serve.bucket_share.b16", "ratio", share (served_at 16) served);
        ("serve.max_queue_depth", "count", count st1.Session.max_queue_depth);
        ( "serve.interp_fallbacks",
          "count",
          count (st1.Session.interp_fallbacks - st0.Session.interp_fallbacks) );
        ("serve.warm_cache_misses", "count", count misses);
        ( "bench.trace_overhead_pct",
          "%",
          let u = Loadgen.throughput untraced in
          100. *. (u -. Loadgen.throughput traced) /. u );
      ])

(* --- command line --- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let scratch = ref "" and spans = ref "" and probe = ref false and jit_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--scratch", Arg.Set_string scratch, "DIR run directory (artifact caches)");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
      ("--setup-probe", Arg.Set probe, " time one cold Session.create and exit");
      ("--jit-dir", Arg.Set_string jit_dir, "DIR artifact directory for --setup-probe");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "main.exe --workload W --seed N --seconds S --trace 0|1 --scratch DIR";
  let wl =
    match List.find_opt (fun wl -> wl.name = !workload) workloads with
    | Some wl -> wl
    | None ->
        fail "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map (fun wl -> wl.name) workloads))
  in
  let w = ok_or_fail "workload" (find_workload wl.program) in
  if !probe then begin
    if !jit_dir = "" then fail "--setup-probe needs --jit-dir";
    let sess, dt = create_session wl w ~jit_dir:!jit_dir in
    Session.close sess;
    Printf.printf "%.9f\n" dt
  end
  else begin
    let seed = !seed and seconds = !seconds and scratch = !scratch in
    if seed < 0 then fail "--seed must be a non-negative integer";
    if seconds <= 0. then fail "--seconds must be positive";
    if scratch = "" then fail "--scratch is required";
    mkdir_p scratch;
    match !trace with
    | 0 -> end_to_end wl w ~seed ~seconds ~scratch
    | 1 ->
        let spans_path = if !spans <> "" then !spans else Filename.concat scratch "spans.json" in
        per_layer wl w ~seed ~seconds ~scratch ~spans_path
    | _ -> fail "--trace must be 0 or 1"
  end
