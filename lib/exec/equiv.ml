open Functs_ir
open Functs_core
open Functs_interp
open Functs_workloads

type outcome = { o_workload : string; o_ok : bool; o_detail : string }

let atol = 1e-4

let values_equal xs ys =
  List.length xs = List.length ys && List.for_all2 (Value.equal ~atol) xs ys

let check_graph ~name (g : Graph.t) ~args_fn =
  let expected = Eval.run g (args_fn ()) in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let inputs = Engine.input_shapes (args_fn ()) in
  let legs =
    [
      ("exec", Engine.prepare ~parallel:false fg ~inputs);
      ("exec-d1", Engine.prepare ~parallel:true ~domains:1 fg ~inputs);
      (* two domains even on small hosts, so Domain dispatch is exercised *)
      ("exec-par", Engine.prepare ~parallel:true ~domains:2 fg ~inputs);
    ]
  in
  let failed =
    List.filter_map
      (fun (leg, eng) ->
        match Engine.run eng (args_fn ()) with
        | got -> if values_equal expected got then None else Some (leg ^ ": outputs differ")
        | exception e -> Some (Printf.sprintf "%s: raised %s" leg (Printexc.to_string e)))
      legs
  in
  match failed with
  | [] ->
      let s = Engine.stats (List.assoc "exec" legs) in
      {
        o_workload = name;
        o_ok = true;
        o_detail =
          Printf.sprintf
            "groups=%d kernel_runs=%d donations=%d pool=%d/%d"
            s.Scheduler.groups s.Scheduler.kernel_runs
            s.Scheduler.donations s.Scheduler.pool_reused
            (s.Scheduler.pool_fresh + s.Scheduler.pool_reused);
      }
  | msgs -> { o_workload = name; o_ok = false; o_detail = String.concat "; " msgs }

let check_workload ?batch ?seq (w : Workload.t) =
  let batch = Option.value batch ~default:w.Workload.default_batch in
  let seq = Option.value seq ~default:w.Workload.default_seq in
  let g = Workload.graph w ~batch ~seq in
  check_graph ~name:w.Workload.name g ~args_fn:(fun () ->
      w.Workload.inputs ~batch ~seq)

let check_all () =
  List.map (fun w -> check_workload w) (Registry.all @ Registry.extensions)

let all_ok outcomes = List.for_all (fun o -> o.o_ok) outcomes
