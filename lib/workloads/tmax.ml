open Functs_frontend

let frames = 64
let features = 4096

(* Temporal max-pooling over a frame sequence, written as the imperative
   accumulator loop a tracker would use: acc = max(acc, frames[t]).  The
   combine is elementwise Max — exactly associative and commutative in
   IEEE float — so the dependence analysis classifies the loop a
   reduction; the engine runs it as the sequential fold. *)
let program ~batch ~seq =
  ignore batch;
  let t = max 2 seq in
  let open Ast in
  {
    name = "temporal_max";
    params = [ tensor_param "frames" ];
    body =
      [
        "acc" := clone (item (var "frames") (i 0));
        for_ "t" (i t)
          [
            "acc"
            := Binop
                 ( Functs_tensor.Scalar.Max,
                   var "acc",
                   item (var "frames") (var "t") );
          ];
        return_ [ var "acc" ];
      ];
  }

let inputs ~batch ~seq =
  ignore batch;
  let t = max 2 seq in
  let state = Workload.seeded 505 in
  [ Workload.rand_tensor state [| t; features |] ]

let workload =
  {
    Workload.name = "tmax";
    display = "TemporalMax";
    kind = Workload.Cv;
    default_batch = 1;
    default_seq = frames;
    program;
    inputs;
    (* ignores the batch parameter entirely *)
    batching = None;
  }
