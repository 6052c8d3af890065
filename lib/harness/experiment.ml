open Functs
type measurement = {
  workload : Workload.t;
  profile : Compiler_profile.t;
  batch : int;
  seq : int;
  summary : Trace.summary;
  outputs_match_reference : bool;
}

let cache : (string * string * int * int, measurement) Hashtbl.t =
  Hashtbl.create 64

let clone_args args =
  List.map
    (function
      | Value.Tensor t -> Value.Tensor (Functs.Tensor.clone t)
      | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)
    args

let run ?(check = true) (w : Workload.t) (profile : Compiler_profile.t) ~batch
    ~seq =
  let key = (w.name, profile.short_name, batch, seq) in
  match Hashtbl.find_opt cache key with
  | Some m -> m
  | None ->
      let reference = Workload.graph w ~batch ~seq in
      let g = Graph.clone reference in
      Passes.for_profile profile g;
      let plan = Fusion.plan profile g in
      let args = w.inputs ~batch ~seq in
      let outputs, summary = Trace.run ~profile ~plan g (clone_args args) in
      let outputs_match_reference =
        if not check then true
        else begin
          let expected = Eval.run reference (clone_args args) in
          List.length expected = List.length outputs
          && List.for_all2 (Value.equal ~atol:1e-4) expected outputs
        end
      in
      let m =
        { workload = w; profile; batch; seq; summary; outputs_match_reference }
      in
      Hashtbl.replace cache key m;
      m

let latency_us m platform = Trace.latency_us platform m.profile m.summary

let speedup_vs ~baseline m platform =
  latency_us baseline platform /. latency_us m platform

let clear_cache () = Hashtbl.reset cache
