open Functs
let non_eager = List.tl Compiler_profile.all

let defaults (w : Workload.t) = (w.default_batch, w.default_seq)

let measure w profile =
  let batch, seq = defaults w in
  Experiment.run w profile ~batch ~seq

(* Fig. 5 *)

type fig5_row = {
  f5_workload : Workload.t;
  f5_speedups : (Compiler_profile.t * float) list;
}

let fig5_rows platform =
  List.map
    (fun w ->
      let eager = measure w Compiler_profile.eager in
      let speedups =
        List.map
          (fun p -> (p, Experiment.speedup_vs ~baseline:eager (measure w p) platform))
          non_eager
      in
      { f5_workload = w; f5_speedups = speedups })
    Registry.all

let fig5_table platform =
  let rows = fig5_rows platform in
  let header =
    "Workload" :: List.map (fun (p : Compiler_profile.t) -> p.short_name) non_eager
  in
  let body =
    List.map
      (fun r ->
        r.f5_workload.display
        :: List.map (fun (_, s) -> Table.fmt_speedup s) r.f5_speedups)
      rows
  in
  Table.render ~header ~rows:body

let fig5 () =
  String.concat "\n"
    (List.map
       (fun (pl : Platform.t) ->
         Printf.sprintf "Fig 5 (%s): speedup over PyTorch eager\n%s\n" pl.name
           (fig5_table pl))
       Platform.all)

(* Fig. 6 *)

type fig6_row = {
  f6_workload : Workload.t;
  f6_kernels : (Compiler_profile.t * int) list;
}

let fig6_rows () =
  List.map
    (fun w ->
      let kernels =
        List.map
          (fun p -> (p, (measure w p).summary.Trace.kernel_launches))
          Compiler_profile.all
      in
      { f6_workload = w; f6_kernels = kernels })
    Registry.all

let fig6 () =
  let rows = fig6_rows () in
  let header =
    "Workload"
    :: List.map (fun (p : Compiler_profile.t) -> p.short_name) Compiler_profile.all
  in
  let body =
    List.map
      (fun r ->
        r.f6_workload.display
        :: List.map (fun (_, k) -> string_of_int k) r.f6_kernels)
      rows
  in
  Printf.sprintf "Fig 6: counts of kernel launches\n%s\n"
    (Table.render ~header ~rows:body)

(* Fig. 7 *)

let fig7_batches = [ 1; 2; 4; 8; 16 ]

let fig7_workloads () =
  List.filter_map Registry.find
    [ "yolov3"; "ssd"; "yolact"; "fcos"; "seq2seq"; "attention" ]

type fig7_row = {
  f7_workload : Workload.t;
  f7_batch : int;
  f7_speedups : (Compiler_profile.t * float) list;
}

let fig7_rows platform =
  List.concat_map
    (fun (w : Workload.t) ->
      List.map
        (fun batch ->
          let seq = w.default_seq in
          let eager = Experiment.run w Compiler_profile.eager ~batch ~seq in
          let speedups =
            List.map
              (fun p ->
                let m = Experiment.run w p ~batch ~seq in
                (p, Experiment.speedup_vs ~baseline:eager m platform))
              non_eager
          in
          { f7_workload = w; f7_batch = batch; f7_speedups = speedups })
        fig7_batches)
    (fig7_workloads ())

let fig7 () =
  let platform = Platform.consumer in
  let rows = fig7_rows platform in
  let header =
    "Workload" :: "Batch"
    :: List.map (fun (p : Compiler_profile.t) -> p.short_name) non_eager
  in
  let body =
    List.map
      (fun r ->
        r.f7_workload.display :: string_of_int r.f7_batch
        :: List.map (fun (_, s) -> Table.fmt_speedup s) r.f7_speedups)
      rows
  in
  Printf.sprintf "Fig 7 (%s): speedup over eager across batch sizes\n%s\n"
    platform.name
    (Table.render ~header ~rows:body)

(* Fig. 8 *)

let fig8_seqs = [ 16; 32; 64; 128; 256 ]

let fig8_workloads () =
  List.filter_map Registry.find [ "nasrnn"; "lstm"; "seq2seq"; "attention" ]

type fig8_row = {
  f8_workload : Workload.t;
  f8_seq : int;
  f8_latency_us : (Compiler_profile.t * float) list;
}

let fig8_rows platform =
  List.concat_map
    (fun (w : Workload.t) ->
      List.map
        (fun seq ->
          let batch = w.default_batch in
          let latencies =
            List.map
              (fun p ->
                let m = Experiment.run w p ~batch ~seq in
                (p, Experiment.latency_us m platform))
              Compiler_profile.all
          in
          { f8_workload = w; f8_seq = seq; f8_latency_us = latencies })
        fig8_seqs)
    (fig8_workloads ())

let fig8 () =
  let platform = Platform.consumer in
  let rows = fig8_rows platform in
  let header =
    "Workload" :: "SeqLen"
    :: List.map (fun (p : Compiler_profile.t) -> p.short_name) Compiler_profile.all
  in
  let body =
    List.map
      (fun r ->
        r.f8_workload.display :: string_of_int r.f8_seq
        :: List.map (fun (_, l) -> Table.fmt_latency_us l) r.f8_latency_us)
      rows
  in
  Printf.sprintf
    "Fig 8 (%s): latency (us) across sequence lengths\n%s\n" platform.name
    (Table.render ~header ~rows:body)

(* Headline *)

let best_baseline_latency w platform =
  List.fold_left
    (fun best p -> Float.min best (Experiment.latency_us (measure w p) platform))
    Float.infinity
    (List.tl Compiler_profile.baselines @ [ List.hd Compiler_profile.baselines ])

let headline () =
  let ratios =
    List.concat_map
      (fun (pl : Platform.t) ->
        List.map
          (fun w ->
            let ours = Experiment.latency_us (measure w Compiler_profile.tensorssa) pl in
            best_baseline_latency w pl /. ours)
          Registry.all)
      Platform.all
  in
  let sum = List.fold_left ( +. ) 0.0 ratios in
  let mean = sum /. float_of_int (List.length ratios) in
  let max_r = List.fold_left Float.max 0.0 ratios in
  (mean, max_r)

let headline_text () =
  let mean, max_r = headline () in
  Printf.sprintf
    "Headline (5.2): TensorSSA vs best baseline: %.2fx mean, %.2fx max\n\
     (paper reports 1.34x mean, 1.79x max on real GPUs)" mean max_r

(* Ablation *)

let ablation () =
  let profiles =
    [
      Compiler_profile.tensorssa;
      Compiler_profile.tensorssa_no_horizontal;
      Compiler_profile.tensorssa_no_fusion;
      Compiler_profile.ts_nnc;
    ]
  in
  let platform = Platform.consumer in
  let header =
    "Workload"
    :: List.map (fun (p : Compiler_profile.t) -> p.short_name) profiles
  in
  let body =
    List.map
      (fun w ->
        w.Workload.display
        :: List.map
             (fun p ->
               Table.fmt_latency_us (Experiment.latency_us (measure w p) platform))
             profiles)
      Registry.all
  in
  Printf.sprintf
    "Ablation (%s, latency us): full TensorSSA vs no-horizontal vs \
     no-vertical-fusion vs TS+NNC\n%s\n"
    platform.name
    (Table.render ~header ~rows:body)

let all_checks_passed () =
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun p ->
          let m = measure w p in
          if not m.Experiment.outputs_match_reference then ok := false)
        Compiler_profile.all)
    Registry.all;
  !ok


(* CSV export *)

let fig5_csv () =
  let rows =
    List.concat_map
      (fun (pl : Platform.t) ->
        List.concat_map
          (fun r ->
            List.map
              (fun ((p : Compiler_profile.t), s) ->
                Printf.sprintf "%s,%s,%s,%.4f" pl.short_name
                  r.f5_workload.display p.short_name s)
              r.f5_speedups)
          (fig5_rows pl))
      Platform.all
  in
  String.concat "\n" ("platform,workload,pipeline,speedup" :: rows)

let fig6_csv () =
  let rows =
    List.concat_map
      (fun r ->
        List.map
          (fun ((p : Compiler_profile.t), k) ->
            Printf.sprintf "%s,%s,%d" r.f6_workload.display p.short_name k)
          r.f6_kernels)
      (fig6_rows ())
  in
  String.concat "\n" ("workload,pipeline,kernel_launches" :: rows)

(* Renderers by name, in the order [functs report] lists them. *)
let reports =
  [
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("headline", headline_text);
    ("ablation", ablation);
    ("fig5.csv", fig5_csv);
    ("fig6.csv", fig6_csv);
  ]
