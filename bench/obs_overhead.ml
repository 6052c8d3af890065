(* Cost of the observability layer, measured standalone.

   Four lines, the last one gated in scripts/check.sh:

     span(disabled)          one Tracer.span call with tracing off
     observe(enabled)        one Metrics.observe into a live histogram
     journal(disabled)       one Journal.record with the journal off
     attribution overhead    fused lstm wall time, journal on vs off —
                             must stay <= 2% (the always-on budget) *)

open Functs

let config =
  match Functs.init () with
  | Ok cfg -> cfg
  | Error e ->
      prerr_endline ("obs_overhead: " ^ Error.to_string e);
      exit 2

let per_call seconds iters = seconds /. float iters *. 1e9

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* --- disabled tracer span --- *)

let () =
  Tracer.disable ();
  let acc = ref 0 in
  let work () = incr acc in
  let iters = 50_000_000 in
  (* warm-up *)
  for _ = 1 to 1_000_000 do Tracer.span "x" work done;
  let t_span = timed (fun () -> for _ = 1 to iters do Tracer.span "x" work done) in
  let t_bare = timed (fun () -> for _ = 1 to iters do work () done) in
  Printf.printf
    "span(disabled): %.2f ns/call, bare closure: %.2f ns/call, overhead %.2f ns\n"
    (per_call t_span iters) (per_call t_bare iters)
    (per_call (t_span -. t_bare) iters);
  ignore !acc

(* --- enabled histogram observe (the serve hot path: count/sum/min/max
   plus one bucket increment, no sorting, no allocation) --- *)

let () =
  let h = Metrics.histogram "bench.obs_overhead.observe_us" in
  let iters = 20_000_000 in
  for i = 1 to 100_000 do Metrics.observe h (float (i land 1023)) done;
  let t =
    timed (fun () ->
        for i = 1 to iters do Metrics.observe h (float (i land 1023)) done)
  in
  Printf.printf "observe(enabled): %.2f ns/call\n" (per_call t iters)

(* --- disabled journal record (what every tuner decision site pays when
   FUNCTS_JOURNAL=off: one bool deref) --- *)

let () =
  Journal.disable ();
  let iters = 50_000_000 in
  for _ = 1 to 1_000_000 do
    Journal.record Journal.Tuner_sample "bench" ~arm:"x" ~value:1.0
  done;
  let t =
    timed (fun () ->
        for _ = 1 to iters do
          Journal.record Journal.Tuner_sample "bench" ~arm:"x" ~value:1.0
        done)
  in
  Printf.printf "journal(disabled): %.2f ns/call\n" (per_call t iters);
  Journal.enable ()

(* --- enabled journal record: mutex + clock read + ring store --- *)

let journal_enabled_ns =
  Journal.enable ();
  let iters = 2_000_000 in
  for _ = 1 to 100_000 do
    Journal.record Journal.Tuner_sample "bench" ~arm:"x" ~value:1.0
  done;
  let t =
    timed (fun () ->
        for _ = 1 to iters do
          Journal.record Journal.Tuner_sample "bench" ~arm:"x" ~value:1.0
        done)
  in
  let ns = per_call t iters in
  Journal.clear ();
  Printf.printf "journal(enabled): %.2f ns/call\n" ns;
  ns

(* --- always-on attribution budget on fused lstm.

   The per-group wall-time attribution piggybacks on clock reads the
   tuner already makes, so the only toggleable cost of leaving the
   journal on is its record calls.  An on-vs-off wall-clock A/B cannot
   certify a 2% budget here — run-to-run drift on a shared box is +/-5%
   — so the overhead is computed from two quantities that ARE stable:
   the enabled per-record cost (tight loop above) and the steady-state
   record rate of the workload (counted over the timed runs). *)

let () =
  let w = Option.get (Registry.find "lstm") in
  let batch = w.Workload.default_batch and seq = w.Workload.default_seq in
  let g = Workload.graph w ~batch ~seq in
  let args = w.Workload.inputs ~batch ~seq in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let eng =
    Engine.prepare ~parallel:false ~domains:config.Config.domains
      ~loop_grain:config.Config.loop_grain
      ~kernel_grain:config.Config.kernel_grain ~cache:false
      ~jit:config.Config.jit ~jit_dir:config.Config.jit_dir fg
      ~inputs:(Engine.input_shapes args)
  in
  (* time the armed engine, not a background JIT compile *)
  Engine.await_jit eng;
  let runs = 40 in
  Journal.enable ();
  (* warm: fill caches and let the tuner pin before measuring *)
  for _ = 1 to 30 do ignore (Engine.run eng args) done;
  let r0 = Journal.recorded () in
  let t = timed (fun () -> for _ = 1 to runs do ignore (Engine.run eng args) done) in
  let records = float (Journal.recorded () - r0) /. float runs in
  let run_ns = t /. float runs *. 1e9 in
  let pct = 100. *. records *. journal_enabled_ns /. run_ns in
  Printf.printf
    "attribution overhead: %.4f%% (lstm fused: %.1f journal records/run x \
     %.0f ns over %.3f ms/run)\n"
    pct records journal_enabled_ns (run_ns /. 1e6)
