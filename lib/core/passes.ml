open Functs_ir
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics

type report = {
  folds : int;
  cse_merged : int;
  dce_removed : int;
  rounds : int;
}

let folds_c = Metrics.counter "passes.folds"
let cse_c = Metrics.counter "passes.cse_merged"
let dce_c = Metrics.counter "passes.dce_removed"
let rounds_c = Metrics.counter "passes.rounds"

let optimize (g : Graph.t) =
  Tracer.span_args "passes.optimize"
    ~args:(fun () -> [ ("graph", g.Graph.g_name) ])
  @@ fun () ->
  let folds = ref 0 and merged = ref 0 and removed = ref 0 and rounds = ref 0 in
  let progress = ref true in
  while !progress && !rounds < 10 do
    incr rounds;
    let f = Tracer.span "passes.fold" (fun () -> Fold.run g) in
    let c = Tracer.span "passes.cse" (fun () -> Cse.run g) in
    let d = Tracer.span "passes.dce" (fun () -> Dce.removed_count g) in
    folds := !folds + f;
    merged := !merged + c;
    removed := !removed + d;
    progress := f + c + d > 0
  done;
  Metrics.incr ~by:!folds folds_c;
  Metrics.incr ~by:!merged cse_c;
  Metrics.incr ~by:!removed dce_c;
  Metrics.incr ~by:!rounds rounds_c;
  { folds = !folds; cse_merged = !merged; dce_removed = !removed; rounds = !rounds }

let tensorssa_pipeline ?(verify = true) (g : Graph.t) =
  Tracer.span_args "passes.tensorssa_pipeline"
    ~args:(fun () -> [ ("graph", g.Graph.g_name) ])
  @@ fun () ->
  let stats = Convert.functionalize ~verify:false g in
  let report = optimize g in
  if verify then Tracer.span "passes.verify" (fun () -> Verifier.check_exn g);
  (stats, report)

let for_profile (profile : Compiler_profile.t) g =
  if profile.functionalize then ignore (tensorssa_pipeline g)
