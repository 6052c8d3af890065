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

(* Whole-tensor accesses and assigns fold away.  An identity access, or
   a step-1 slice whose constant bounds cover a statically known dim,
   is its input.  An identity or full-range slice assign whose base and
   source shapes are statically equal is a bit-for-bit copy of its
   source ([Eval] clones the base and copies every element of [src]
   over it).  Their uses read that value itself.  Only on mutation-free
   graphs: with mutations left, the value could change between the copy
   and a later use. *)
let fold_whole_assigns g ~inputs =
  if Cse.has_mutation g then 0
  else begin
    let shapes = Shape_infer.infer g ~inputs in
    let static v = Option.bind (Shape_infer.shape_of shapes v) Shape_infer.concrete in
    let copies base src =
      Dtype.equal src.Graph.v_type Dtype.Tensor
      && Option.is_some (static base)
      && static base = static src
    in
    let full base dim start stop =
      match
        ( Option.bind (Shape_infer.shape_of shapes base) (fun s ->
              Shape_infer.extent s dim),
          Shape_infer.constant_int start,
          Shape_infer.constant_int stop )
      with
      | Some size, Some s0, Some s1 -> (s0 = 0 || s0 <= -size) && s1 >= size
      | _ -> false
    in
    List.fold_left
      (fun n (node : Graph.node) ->
        let fold out v =
          Graph.replace_all_uses g ~old_value:out ~new_value:v;
          Graph.remove_node node;
          n + 1
        in
        match (node.n_op, node.n_inputs, node.n_outputs) with
        | Op.Access Op.Identity, [ base ], [ out ] -> fold out base
        | Op.Access (Op.Slice { dim; step = 1 }), [ base; s0; s1 ], [ out ]
          when full base dim s0 s1 ->
            fold out base
        | Op.Assign Op.Identity, [ base; src ], [ out ] when copies base src ->
            fold out src
        | Op.Assign (Op.Slice { dim; step = 1 }), [ base; src; s0; s1 ], [ out ]
          when full base dim s0 s1 && copies base src ->
            fold out src
        | _ -> n)
      0 (Graph.all_nodes g)
  end

let optimize ?inputs (g : Graph.t) =
  Tracer.span_args "passes.optimize"
    ~args:(fun () -> [ ("graph", g.Graph.g_name) ])
  @@ fun () ->
  let folds = ref 0 and merged = ref 0 and removed = ref 0 and rounds = ref 0 in
  let progress = ref true in
  while !progress && !rounds < 10 do
    incr rounds;
    let f =
      Tracer.span "passes.fold" (fun () ->
          Fold.run g
          + Option.fold ~none:0 ~some:(fun inputs -> fold_whole_assigns g ~inputs) inputs)
    in
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

let tensorssa_pipeline ?(verify = true) ?inputs (g : Graph.t) =
  Tracer.span_args "passes.tensorssa_pipeline"
    ~args:(fun () -> [ ("graph", g.Graph.g_name) ])
  @@ fun () ->
  let stats = Convert.functionalize ~verify:false g in
  let report = optimize ?inputs g in
  if verify then Tracer.span "passes.verify" (fun () -> Verifier.check_exn g);
  (stats, report)

let for_profile ?inputs (profile : Compiler_profile.t) g =
  if profile.functionalize then ignore (tensorssa_pipeline ?inputs g)
