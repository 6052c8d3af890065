(* Experiment harness: measurement caching, figure row structure, and the
   qualitative claims of the paper's evaluation (§5.2-§5.4) as executable
   assertions.  Runs on reduced scales to stay fast; the full-scale tables
   come from bench/main.exe. *)

open Functs_core
open Functs_cost
open Functs_workloads
open Functs_harness
open Functs_ir
open Functs_interp
open Functs_exec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Use a small but representative subset so the suite stays quick. *)
let small_seq = 8

let measure w p = Experiment.run w p ~batch:1 ~seq:small_seq

let test_measurement_checked () =
  Experiment.clear_cache ();
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun p ->
          let m = measure w p in
          check
            (Printf.sprintf "%s under %s matches reference" w.name
               p.Compiler_profile.short_name)
            true m.Experiment.outputs_match_reference)
        Compiler_profile.all)
    Registry.all

let test_cache_hit () =
  let w = List.hd Registry.all in
  let m1 = measure w Compiler_profile.eager in
  let m2 = measure w Compiler_profile.eager in
  check "same physical measurement" true (m1 == m2)

let test_tensorssa_beats_baselines () =
  (* §5.2: consistent speedup over every baseline on both platforms. *)
  List.iter
    (fun (pl : Platform.t) ->
      List.iter
        (fun (w : Workload.t) ->
          let ours = Experiment.latency_us (measure w Compiler_profile.tensorssa) pl in
          List.iter
            (fun p ->
              let theirs = Experiment.latency_us (measure w p) pl in
              check
                (Printf.sprintf "%s: TensorSSA <= %s on %s" w.name
                   p.Compiler_profile.short_name pl.short_name)
                true
                (ours <= theirs *. 1.0001))
            Compiler_profile.baselines)
        Registry.all)
    Platform.all

let test_speedup_positive_vs_eager () =
  List.iter
    (fun (w : Workload.t) ->
      let eager = measure w Compiler_profile.eager in
      let ours = measure w Compiler_profile.tensorssa in
      let s = Experiment.speedup_vs ~baseline:eager ours Platform.consumer in
      check (w.name ^ " speedup > 1.2x") true (s > 1.2))
    Registry.all

let test_nlp_speedup_exceeds_cv () =
  (* §5.2: "the speedup for NLP models is more significant than for CV". *)
  let mean_speedup ws =
    let ss =
      List.map
        (fun (w : Workload.t) ->
          let eager = measure w Compiler_profile.eager in
          Experiment.speedup_vs ~baseline:eager
            (measure w Compiler_profile.tensorssa)
            Platform.consumer)
        ws
    in
    List.fold_left ( +. ) 0.0 ss /. float_of_int (List.length ss)
  in
  check "NLP mean speedup > CV mean speedup" true
    (mean_speedup Registry.nlp > mean_speedup Registry.cv)

let test_fig8_latency_increases_with_seq () =
  (* §5.4: latency grows (linearly) with sequence length. *)
  let w = Option.get (Registry.find "nasrnn") in
  let lat seq =
    Experiment.latency_us
      (Experiment.run w Compiler_profile.tensorssa ~batch:1 ~seq)
      Platform.consumer
  in
  let l8 = lat 8 and l16 = lat 16 and l32 = lat 32 in
  check "monotone" true (l8 < l16 && l16 < l32);
  (* linear-ish: doubling seq roughly doubles latency *)
  let ratio = l32 /. l16 in
  check "roughly linear" true (ratio > 1.6 && ratio < 2.4)

let test_ablation_ordering () =
  (* Full TensorSSA <= no-horizontal <= no-vertical-fusion latency. *)
  List.iter
    (fun (w : Workload.t) ->
      let lat p = Experiment.latency_us (measure w p) Platform.consumer in
      let full = lat Compiler_profile.tensorssa in
      let no_h = lat Compiler_profile.tensorssa_no_horizontal in
      let no_v = lat Compiler_profile.tensorssa_no_fusion in
      check (w.name ^ ": full <= noH") true (full <= no_h *. 1.0001);
      check (w.name ^ ": noH <= noV") true (no_h <= no_v *. 1.0001))
    Registry.all

let test_fig_rows_well_formed () =
  (* Structured rows drive the bench tables; sanity-check their shape on
     the real default scales for one workload each. *)
  let rows = Figures.fig6_rows () in
  check_int "fig6: eight rows" 8 (List.length rows);
  List.iter
    (fun r ->
      check_int "five pipelines" 5 (List.length r.Figures.f6_kernels);
      List.iter
        (fun (_, k) -> check "positive kernel count" true (k > 0))
        r.Figures.f6_kernels)
    rows

(* Every consumer that takes a profile lowers through [Passes.for_profile]:
   baselines keep the imperative graph (its [Mutate] nodes included), the
   TensorSSA profiles functionalize it, and the engine runs either form
   with the interpreter's results. *)
let test_profile_lowering () =
  let w = Option.get (Registry.find "yolov3") in
  let reference = Workload.graph w ~batch:1 ~seq:small_seq in
  let args () = w.inputs ~batch:1 ~seq:small_seq in
  let expected = Eval.run reference (args ()) in
  List.iter
    (fun (p : Compiler_profile.t) ->
      let g = Graph.clone reference in
      Passes.for_profile p g;
      let mutates =
        List.exists (fun n -> Op.is_mutation n.Graph.n_op) (Graph.all_nodes g)
      in
      check (p.short_name ^ ": Mutate nodes kept iff not functionalized")
        (not p.functionalize) mutates;
      let eng =
        Engine.prepare ~profile:p ~domains:1 g
          ~inputs:(Engine.input_shapes (args ()))
      in
      check (p.short_name ^ ": engine matches the interpreter") true
        (Equiv.bitwise expected (Engine.run eng (args ()))))
    Compiler_profile.all

let () =
  Alcotest.run "harness"
    [
      ( "experiment",
        [
          Alcotest.test_case "all measurements check out" `Slow
            test_measurement_checked;
          Alcotest.test_case "cache" `Quick test_cache_hit;
        ] );
      ( "claims",
        [
          Alcotest.test_case "wins vs all baselines" `Slow
            test_tensorssa_beats_baselines;
          Alcotest.test_case "speedup vs eager" `Slow
            test_speedup_positive_vs_eager;
          Alcotest.test_case "NLP > CV" `Slow test_nlp_speedup_exceeds_cv;
          Alcotest.test_case "latency linear in seq" `Slow
            test_fig8_latency_increases_with_seq;
          Alcotest.test_case "ablation ordering" `Slow test_ablation_ordering;
        ] );
      ( "figures",
        [ Alcotest.test_case "fig6 rows" `Slow test_fig_rows_well_formed ] );
      ( "lowering",
        [
          Alcotest.test_case "profile-driven lowering" `Quick
            test_profile_lowering;
        ] );
    ]
