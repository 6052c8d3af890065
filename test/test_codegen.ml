(* Tensor-expression codegen: emitted kernels reference the right
   inputs/outputs, views become index arithmetic, assigns become
   predicated selects, and every workload's TensorSSA form renders. *)

open Functs_ir
open Functs_core
open Functs_interp
open Functs_workloads
module T = Functs_tensor.Tensor
module S = Functs_tensor.Scalar

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let compile_and_emit ?(shapes = []) g =
  ignore (Passes.tensorssa_pipeline g);
  let plan = Fusion.plan Compiler_profile.tensorssa g in
  let inputs =
    if shapes = [] then List.map (fun _ -> None) (Graph.params g)
    else List.map (fun s -> Option.map Shape_infer.known s) shapes
  in
  let inferred = Shape_infer.infer g ~inputs in
  (Codegen.emit g plan ~shapes:inferred, Codegen.render_all g plan ~shapes:inferred)

let test_elementwise_kernel () =
  let b = Builder.create "ew" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let y = Builder.sigmoid b (Builder.exp b x) in
  Builder.return b [ y ];
  let g = Builder.graph b in
  let kernels, text = compile_and_emit ~shapes:[ Some [| 4; 4 |] ] g in
  check_int "one kernel" 1 (List.length kernels);
  let k = List.hd kernels in
  check_int "one input" 1 (List.length k.Codegen.k_inputs);
  check_int "one output" 1 (List.length k.Codegen.k_outputs);
  (* one statement per compute node, chained through a temporary *)
  check "exp statement" true (contains ~needle:"= exp(" text);
  check "sigmoid statement" true (contains ~needle:"= sigmoid(" text);
  check "indexed" true (contains ~needle:"[i0, i1]" text)

let test_select_assign_predicated () =
  let b = Builder.create "sa" ~params:[ ("x", Dtype.Tensor); ("s", Dtype.Tensor) ] in
  let x = Builder.param b 0 and s = Builder.param b 1 in
  let t = Builder.clone b x in
  let row = Builder.select b t ~dim:0 (Builder.int b 2) in
  let _ = Builder.copy_ b row s in
  Builder.return b [ t ];
  let g = Builder.graph b in
  let _, text = compile_and_emit ~shapes:[ Some [| 4; 3 |]; Some [| 3 |] ] g in
  check "predicated row write" true (contains ~needle:"((i0 == 2) ?" text)

let test_slice_full_dim_drops_predicate () =
  (* writing the whole dim 0 range [0:4] of a [4,2] tensor: no predicate *)
  let b = Builder.create "full" ~params:[ ("x", Dtype.Tensor); ("s", Dtype.Tensor) ] in
  let x = Builder.param b 0 and s = Builder.param b 1 in
  let t = Builder.clone b x in
  let region =
    Builder.slice b t ~dim:0 ~start:(Builder.int b 0) ~stop:(Builder.int b 4) ()
  in
  let _ = Builder.copy_ b region s in
  Builder.return b [ t ];
  let g = Builder.graph b in
  let _, text = compile_and_emit ~shapes:[ Some [| 4; 2 |]; Some [| 4; 2 |] ] g in
  check "no predicate for full-range write" true
    (not (contains ~needle:"?" text))

let test_partial_slice_keeps_bound () =
  let b = Builder.create "part" ~params:[ ("x", Dtype.Tensor); ("s", Dtype.Tensor) ] in
  let x = Builder.param b 0 and s = Builder.param b 1 in
  let t = Builder.clone b x in
  let region =
    Builder.slice b t ~dim:0 ~start:(Builder.int b 0) ~stop:(Builder.int b 2) ()
  in
  let _ = Builder.copy_ b region s in
  Builder.return b [ t ];
  let g = Builder.graph b in
  let _, text = compile_and_emit ~shapes:[ Some [| 4; 2 |]; Some [| 2; 2 |] ] g in
  check "upper bound kept" true (contains ~needle:"i0 < 2" text)

let test_reduction_combinator () =
  let b = Builder.create "red" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let sm = Builder.softmax b (Builder.mul b x x) ~dim:1 in
  Builder.return b [ sm ];
  let g = Builder.graph b in
  let _, text = compile_and_emit ~shapes:[ Some [| 3; 5 |] ] g in
  check "reduce_sum appears" true (contains ~needle:"reduce_sum(r" text)

let test_matmul_not_in_kernel () =
  let b = Builder.create "mm" ~params:[ ("x", Dtype.Tensor); ("y", Dtype.Tensor) ] in
  let x = Builder.param b 0 and y = Builder.param b 1 in
  let m = Builder.matmul b x y in
  let r = Builder.relu b m in
  Builder.return b [ r ];
  let g = Builder.graph b in
  let kernels, _ = compile_and_emit ~shapes:[ Some [| 2; 3 |]; Some [| 3; 2 |] ] g in
  (* matmul is one opaque kernel, relu a second fused (singleton) kernel *)
  check_int "two kernels" 2 (List.length kernels)

(* Execute emitted kernels and compare every stored statement against the
   interpreter's values — the codegen semantics check.  Straight-line
   graphs only (loop-body kernels reference induction variables). *)
let eval_against_interp g args =
  ignore (Passes.tensorssa_pipeline g);
  let plan = Fusion.plan Compiler_profile.tensorssa g in
  let input_shapes =
    List.map
      (function
        | Value.Tensor t -> Some (Shape_infer.known (T.shape t))
        | Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _ -> None)
      args
  in
  let shapes = Shape_infer.infer g ~inputs:input_shapes in
  (* capture every runtime value during interpretation *)
  let seen : (int, Value.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter2
    (fun (p : Graph.value) v -> Hashtbl.replace seen p.v_id v)
    (Graph.params g) args;
  let observer = function
    | Eval.Op_executed { node; outputs; _ } ->
        List.iter2
          (fun (o : Graph.value) v -> Hashtbl.replace seen o.v_id v)
          node.n_outputs outputs
    | Eval.If_taken _ | Eval.Loop_started _ | Eval.Loop_iteration _ -> ()
  in
  ignore (Eval.run ~observer g args);
  let lookup (v : Graph.value) =
    match Hashtbl.find_opt seen v.v_id with
    | Some (Value.Tensor t) -> Some t
    | _ -> None
  in
  (* free scalar symbols resolve through the same captured environment *)
  let by_name : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Graph.iter_nodes g (fun n ->
      List.iter
        (fun (o : Graph.value) ->
          match Hashtbl.find_opt seen o.v_id with
          | Some (Value.Int i) -> Hashtbl.replace by_name (Codegen.value_ref o) i
          | _ -> ())
        n.n_outputs);
  List.iter
    (fun (p : Graph.value) ->
      match Hashtbl.find_opt seen p.v_id with
      | Some (Value.Int i) -> Hashtbl.replace by_name (Codegen.value_ref p) i
      | _ -> ())
    (Graph.params g);
  let scalar name = Hashtbl.find_opt by_name name in
  let checked = ref 0 and skipped = ref 0 in
  List.iter
    (fun k ->
      match Codegen.eval_kernel k ~shapes ~lookup ~scalar with
      | results ->
          List.iter
            (fun ((out : Graph.value), tensor) ->
              match Hashtbl.find_opt seen out.v_id with
              | Some (Value.Tensor expected) ->
                  incr checked;
                  check
                    (Printf.sprintf "kernel value %%%s matches interpreter"
                       out.v_name)
                    true
                    (T.allclose ~atol:1e-5 expected tensor)
              | _ -> ())
            results
      | exception Codegen.Not_executable _ -> incr skipped)
    (Codegen.emit g plan ~shapes);
  (!checked, !skipped)

let test_eval_matches_interpreter_ssd () =
  let w = Option.get (Registry.find "ssd") in
  let g = Workload.graph w ~batch:1 ~seq:1 in
  let args =
    List.map
      (function
        | Value.Tensor t -> Value.Tensor (T.clone t)
        | v -> v)
      (w.inputs ~batch:1 ~seq:1)
  in
  let checked, _ = eval_against_interp g args in
  check "checked several values" true (checked >= 3)

let test_eval_matches_interpreter_small () =
  (* hand-built straight-line program with select/slice assigns *)
  let b = Builder.create "mix" ~params:[ ("x", Dtype.Tensor); ("s", Dtype.Tensor) ] in
  let x = Builder.param b 0 and s = Builder.param b 1 in
  let t = Builder.clone b x in
  let row = Builder.select b t ~dim:0 (Builder.int b 1) in
  let _ = Builder.copy_ b row s in
  let region =
    Builder.slice b t ~dim:1 ~start:(Builder.int b 0) ~stop:(Builder.int b 2) ()
  in
  let _ = Builder.binary_ b S.Mul region (Builder.float b 3.0) in
  Builder.return b [ Builder.sigmoid b t ];
  let g = Builder.graph b in
  let state = Random.State.make [| 5 |] in
  let args =
    [
      Value.Tensor (T.rand state [| 3; 4 |]);
      Value.Tensor (T.rand state [| 4 |]);
    ]
  in
  let checked, skipped = eval_against_interp g args in
  check "no kernels skipped" true (skipped = 0);
  check "values checked" true (checked >= 3)

(* A 2-D matmul is a statement of its own, evaluated with the
   interpreter's summation order. *)
let test_eval_matmul_statement () =
  let b = Builder.create "mm" ~params:[ ("x", Dtype.Tensor); ("y", Dtype.Tensor) ] in
  let x = Builder.param b 0 and y = Builder.param b 1 in
  Builder.return b [ Builder.relu b (Builder.matmul b x y) ];
  let g = Builder.graph b in
  let _, text =
    compile_and_emit ~shapes:[ Some [| 3; 4 |]; Some [| 4; 5 |] ] (Graph.clone g)
  in
  check "the matmul renders as one statement" true
    (contains ~needle:"= matmul(x_" text);
  let state = Random.State.make [| 11 |] in
  let args =
    [ Value.Tensor (T.rand state [| 3; 4 |]); Value.Tensor (T.rand state [| 4; 5 |]) ]
  in
  let checked, skipped = eval_against_interp g args in
  check "no kernels skipped" true (skipped = 0);
  check "the product and the relu checked" true (checked >= 2)

let test_workloads_render () =
  List.iter
    (fun (w : Workload.t) ->
      let seq = min w.default_seq 4 in
      let g = Workload.graph w ~batch:1 ~seq in
      let args = w.inputs ~batch:1 ~seq in
      ignore (Passes.tensorssa_pipeline g);
      let plan = Fusion.plan Compiler_profile.tensorssa g in
      let inputs =
        List.map
          (function
            | Value.Tensor t -> Some (Shape_infer.known (T.shape t))
            | Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _ -> None)
          args
      in
      let shapes = Shape_infer.infer g ~inputs in
      let text = Codegen.render_all g plan ~shapes in
      check (w.name ^ " renders kernels") true
        (contains ~needle:"kernel fused_0" text);
      check (w.name ^ " no opaque fallbacks") true
        (not (contains ~needle:"[*]" text)))
    Registry.all

let prop_eval_random_straightline =
  QCheck2.Test.make
    ~name:"emitted kernels match the interpreter on random programs"
    ~count:100 ~print:Generators.print_program
    Generators.gen_straightline_program (fun p ->
      let g = Functs_frontend.Lower.program p in
      let state = Random.State.make [| 23 |] in
      let args =
        [
          Value.Tensor (T.rand state [| Generators.rows; Generators.rows |]);
          Value.Int 1;
        ]
      in
      let checked, _skipped = eval_against_interp g args in
      checked >= 1)

let () =
  Alcotest.run "codegen"
    [
      ( "kernels",
        [
          Alcotest.test_case "elementwise" `Quick test_elementwise_kernel;
          Alcotest.test_case "predicated select" `Quick
            test_select_assign_predicated;
          Alcotest.test_case "full-range slice" `Quick
            test_slice_full_dim_drops_predicate;
          Alcotest.test_case "partial slice bound" `Quick
            test_partial_slice_keeps_bound;
          Alcotest.test_case "reductions" `Quick test_reduction_combinator;
          Alcotest.test_case "matmul opaque" `Quick test_matmul_not_in_kernel;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "ssd kernels match interpreter" `Quick
            test_eval_matches_interpreter_ssd;
          Alcotest.test_case "mixed assigns match interpreter" `Quick
            test_eval_matches_interpreter_small;
          Alcotest.test_case "matmul statement matches interpreter" `Quick
            test_eval_matmul_statement;
        ] );
      ( "workloads",
        [ Alcotest.test_case "all render" `Quick test_workloads_render ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_eval_random_straightline ] );
    ]
