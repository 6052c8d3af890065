(* Optimization passes: CSE, constant folding / control-flow
   simplification, and defunctionalization (the TensorSSA -> mutable
   round-trip), with property tests over the random-program generator's
   workload graphs. *)

open Functs_ir
open Functs_core
open Functs_interp
open Functs_workloads
module T = Functs_tensor.Tensor
module S = Functs_tensor.Scalar

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let clone_args =
  List.map (function
    | Value.Tensor t -> Value.Tensor (T.clone t)
    | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)

(* --- CSE --- *)

let test_cse_merges_duplicates () =
  let b = Builder.create "dup" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let a1 = Builder.sigmoid b x in
  let a2 = Builder.sigmoid b x in
  let s = Builder.add b a1 a2 in
  Builder.return b [ s ];
  let g = Builder.graph b in
  let merged = Cse.run g in
  check_int "one merge" 1 merged;
  Verifier.check_exn g;
  check_int "two nodes left" 2 (Graph.size g)

let test_cse_chain_merges_in_one_pass () =
  (* sigmoid(x) twice, then exp of each: both pairs merge. *)
  let b = Builder.create "chain" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let a1 = Builder.sigmoid b x in
  let a2 = Builder.sigmoid b x in
  let e1 = Builder.exp b a1 in
  let e2 = Builder.exp b a2 in
  Builder.return b [ Builder.add b e1 e2 ];
  let g = Builder.graph b in
  check_int "two merges" 2 (Cse.run g);
  Verifier.check_exn g

(* -0. and 0. (and two NaN payloads) compare equal structurally; as
   constants they must stay apart. *)
let test_cse_keeps_float_bits () =
  let b = Builder.create "zeros" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let neg = Builder.mul b x (Builder.float b (-0.0)) in
  let pos = Builder.mul b x (Builder.float b 0.0) in
  Builder.return b [ neg; pos ];
  let g = Builder.graph b in
  check_int "no merge" 0 (Cse.run g);
  match Eval.run g [ Value.Tensor (T.of_array [| 1 |] [| 1.0 |]) ] with
  | [ Value.Tensor n; Value.Tensor p ] ->
      check "x * -0. keeps its sign" true
        (Int64.bits_of_float (T.get n [| 0 |]) = Int64.bits_of_float (-0.0));
      check "x * 0. stays +0." true
        (Int64.bits_of_float (T.get p [| 0 |]) = 0L)
  | _ -> Alcotest.fail "two tensor outputs"

let test_cse_refuses_mutation () =
  let b = Builder.create "mut" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let t = Builder.clone b x in
  let a1 = Builder.sigmoid b t in
  let _ = Builder.binary_ b S.Add t (Builder.float b 1.0) in
  let a2 = Builder.sigmoid b t in
  (* a1 and a2 are structurally identical but read different states! *)
  Builder.return b [ Builder.add b a1 a2 ];
  let g = Builder.graph b in
  check_int "no merges with mutation present" 0 (Cse.run g)

let test_cse_never_merges_clones () =
  let b = Builder.create "cl" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let c1 = Builder.clone b x in
  let c2 = Builder.clone b x in
  Builder.return b [ c1; c2 ];
  let g = Builder.graph b in
  check_int "clones kept" 0 (Cse.run g)

let test_cse_scoped_across_blocks () =
  (* An expression computed before a loop is reused inside its body. *)
  let b =
    Builder.create "scope"
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let outer = Builder.sigmoid b x in
  let outs =
    Builder.loop b ~trip:n ~init:[ x ] ~body:(fun ~i ~carried ->
        ignore i;
        match carried with
        | [ acc ] ->
            let inner = Builder.sigmoid b x in
            [ Builder.add b acc inner ]
        | _ -> assert false)
  in
  Builder.return b [ Builder.add b (List.hd outs) outer ];
  let g = Builder.graph b in
  check_int "inner merged with outer" 1 (Cse.run g);
  Verifier.check_exn g

let test_cse_on_functionalized_fig4 () =
  (* Fig. 4's conversion leaves a duplicate immut::select: CSE takes it. *)
  let b =
    Builder.create "fig4"
      ~params:[ ("b0", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let b0 = Builder.param b 0 and n = Builder.param b 1 in
  let t = Builder.clone b b0 in
  let one = Builder.float b 1.0 in
  let _ =
    Builder.loop b ~trip:n ~init:[] ~body:(fun ~i ~carried ->
        ignore carried;
        let v = Builder.select b t ~dim:0 i in
        let s = Builder.add b v one in
        let v2 = Builder.select b t ~dim:0 i in
        let _ = Builder.copy_ b v2 s in
        [])
  in
  Builder.return b [ t ];
  let g = Builder.graph b in
  ignore (Convert.functionalize g);
  check "duplicate access merged" true (Cse.run g >= 1);
  Verifier.check_exn g

(* --- constant folding --- *)

let test_fold_scalar_chain () =
  let b = Builder.create "f" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let two = Builder.int b 2 in
  let three = Builder.int b 3 in
  let five = Builder.scalar_binary b S.Add two three in
  let ten = Builder.scalar_binary b S.Mul five two in
  let r = Builder.select b x ~dim:0 (Builder.scalar_binary b S.Sub ten ten) in
  Builder.return b [ r ];
  let g = Builder.graph b in
  let n = Fold.run g in
  check "three folds" true (n >= 3);
  Dce.run g;
  Verifier.check_exn g;
  (* All scalar arithmetic folded away. *)
  let scalar_ops =
    List.filter
      (fun (n : Graph.node) ->
        match n.n_op with Op.Scalar_binary _ -> true | _ -> false)
      (Graph.all_nodes g)
  in
  check_int "no scalar ops remain" 0 (List.length scalar_ops)

let test_fold_constant_if () =
  let b = Builder.create "cif" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let cond = Builder.bool b true in
  let outs =
    Builder.if_ b ~cond ~out_types:[ Dtype.Tensor ]
      ~then_:(fun () -> [ Builder.sigmoid b x ])
      ~else_:(fun () -> [ Builder.relu b x ])
  in
  Builder.return b outs;
  let g = Builder.graph b in
  check "folded" true (Fold.run g >= 1);
  Dce.run g;
  Verifier.check_exn g;
  check "no control flow left" true
    (List.for_all
       (fun (n : Graph.node) -> not (Op.is_control_flow n.n_op))
       (Graph.all_nodes g));
  (* The then-branch survived. *)
  check "sigmoid kept" true
    (List.exists
       (fun (n : Graph.node) -> n.n_op = Op.Unary S.Sigmoid)
       (Graph.all_nodes g))

let test_fold_zero_trip_loop () =
  let b = Builder.create "z" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let outs =
    Builder.loop b ~trip:(Builder.int b 0) ~init:[ x ] ~body:(fun ~i ~carried ->
        ignore i;
        [ Builder.exp b (List.hd carried) ])
  in
  Builder.return b outs;
  let g = Builder.graph b in
  check "folded" true (Fold.run g >= 1);
  Dce.run g;
  Verifier.check_exn g;
  (* Returns the input directly. *)
  check "identity" true (List.hd (Graph.returns g) == x)

let test_fold_unroll_single_iteration () =
  let b = Builder.create "u1" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let outs =
    Builder.loop b ~trip:(Builder.int b 1) ~init:[ x ] ~body:(fun ~i ~carried ->
        ignore i;
        [ Builder.exp b (List.hd carried) ])
  in
  Builder.return b outs;
  let g = Builder.graph b in
  check "unrolled" true (Fold.run g >= 1);
  Dce.run g;
  Verifier.check_exn g;
  check "loop gone" true
    (List.for_all
       (fun (n : Graph.node) -> not (Op.is_control_flow n.n_op))
       (Graph.all_nodes g));
  let out = Eval.run g [ Value.Tensor (T.zeros [| 2 |]) ] in
  check "exp applied once" true
    (Value.equal (List.hd out) (Value.Tensor (T.ones [| 2 |])))

(* --- defunctionalization --- *)

let fig4_graph () =
  let b =
    Builder.create "fig4"
      ~params:[ ("b0", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let b0 = Builder.param b 0 and n = Builder.param b 1 in
  let t = Builder.clone b b0 in
  let one = Builder.float b 1.0 in
  let _ =
    Builder.loop b ~trip:n ~init:[] ~body:(fun ~i ~carried ->
        ignore carried;
        let v = Builder.select b t ~dim:0 i in
        let s = Builder.add b v one in
        let v2 = Builder.select b t ~dim:0 i in
        let _ = Builder.copy_ b v2 s in
        [])
  in
  Builder.return b [ t ];
  Builder.graph b

let test_defunctionalize_roundtrip_fig4 () =
  let g = fig4_graph () in
  let args () = [ Value.Tensor (T.of_array [| 3; 2 |] (Array.init 6 float_of_int)); Value.Int 3 ] in
  let expected = Eval.run (Graph.clone g) (args ()) in
  ignore (Convert.functionalize g);
  let stats = Defunctionalize.run g in
  check "assigns lowered" true (stats.assigns_lowered >= 2);
  check "mutations back" true (not (Convert.mutation_free g));
  let got = Eval.run g (args ()) in
  check "roundtrip equivalent" true
    (List.for_all2 (Value.equal ~atol:1e-6) expected got);
  (* And it can be functionalized again.  The loop-carried clone's
     component now has control-flow aliasing (the clone is the block
     return), so that mutation is conservatively kept; the straight-line
     one converts back. *)
  let again = Convert.functionalize g in
  check "re-functionalizes" true (again.mutations_rewritten >= 1);
  let expected2 = Eval.run (Graph.clone g) (args ()) in
  check "still equivalent after re-functionalization" true
    (List.for_all2 (Value.equal ~atol:1e-6) expected2 (Eval.run g (args ())))

let test_buffer_reuse_recovers_inplace () =
  (* assign whose base dies: lowered without a clone. *)
  let b = Builder.create "reuse" ~params:[ ("x", Dtype.Tensor); ("s", Dtype.Tensor) ] in
  let x = Builder.param b 0 and s = Builder.param b 1 in
  let t = Builder.clone b x in
  let zero = Builder.int b 0 in
  let fresh = Builder.op1 b (Op.Assign (Op.Select { dim = 0 })) [ t; s; zero ] in
  Builder.return b [ fresh ];
  let g = Builder.graph b in
  let stats = Defunctionalize.run g in
  check_int "one assign" 1 stats.assigns_lowered;
  check_int "buffer reused" 1 stats.buffers_reused;
  (* No extra clone was inserted: exactly clone, const, view, copy_. *)
  check_int "four nodes" 4 (Graph.size g)

let test_no_reuse_when_base_live () =
  let b = Builder.create "live" ~params:[ ("x", Dtype.Tensor); ("s", Dtype.Tensor) ] in
  let x = Builder.param b 0 and s = Builder.param b 1 in
  let t = Builder.clone b x in
  let zero = Builder.int b 0 in
  let fresh = Builder.op1 b (Op.Assign (Op.Select { dim = 0 })) [ t; s; zero ] in
  (* t is returned too: its pre-assign contents stay observable. *)
  Builder.return b [ fresh; t ];
  let g = Builder.graph b in
  let args () =
    [
      Value.Tensor (T.zeros [| 2; 2 |]);
      Value.Tensor (T.of_array [| 2 |] [| 5.; 6. |]);
    ]
  in
  let expected = Eval.run (Graph.clone g) (args ()) in
  let stats = Defunctionalize.run g in
  check_int "no reuse" 0 stats.buffers_reused;
  let got = Eval.run g (args ()) in
  check "old version preserved" true
    (List.for_all2 (Value.equal ~atol:1e-9) expected got)

(* --- whole assigns of an equal shape fold to their source --- *)

let whole_assign_graph () =
  let b =
    Builder.create "overwrite"
      ~params:[ ("base", Dtype.Tensor); ("src", Dtype.Tensor) ]
  in
  let base = Builder.param b 0 and src = Builder.param b 1 in
  let fresh = Builder.op1 b (Op.Assign Op.Identity) [ base; src ] in
  Builder.return b [ Builder.sigmoid b fresh ];
  Builder.graph b

let count_whole_assigns g =
  let n = ref 0 in
  Graph.iter_nodes g (fun node ->
      if node.Graph.n_op = Op.Assign Op.Identity then incr n);
  !n

let test_fold_whole_assign () =
  let shapes dims = List.map (fun d -> Some (Shape_infer.known d)) dims in
  let folds inputs =
    let g = whole_assign_graph () in
    ignore (Passes.optimize ?inputs g);
    Verifier.check_exn g;
    1 - count_whole_assigns g
  in
  check_int "equal static shapes fold" 1
    (folds (Some (shapes [ [| 2; 3 |]; [| 2; 3 |] ])));
  check_int "a broadcast source stays" 0
    (folds (Some (shapes [ [| 2; 3 |]; [| 3 |] ])));
  check_int "unknown shapes stay" 0 (folds None);
  check_int "an unknown parameter shape stays" 0
    (folds (Some [ Some (Shape_infer.known [| 2; 3 |]); None ]));
  (* lstm: the per-step [out[t] = h] no longer copies [out[t]] first,
     and the outputs keep their bits *)
  let w = Option.get (Registry.find "lstm") in
  let g = Workload.graph w ~batch:2 ~seq:3 in
  let args = w.inputs ~batch:2 ~seq:3 in
  let fg = Graph.clone g in
  let without = Graph.clone g in
  ignore (Passes.tensorssa_pipeline without);
  ignore
    (Passes.tensorssa_pipeline
       ~inputs:(Functs_exec.Engine.input_shapes args)
       fg);
  check "lstm's whole assign folds" true
    (count_whole_assigns fg < count_whole_assigns without);
  check "lstm outputs are bitwise-equal" true
    (Functs_exec.Equiv.bitwise
       (Eval.run g (clone_args args))
       (Eval.run fg (clone_args args)))

(* --- full-range slices fold to the value they slice --- *)

(* The step-1 slice accesses and slice assigns of [g], each with its
   constant bounds and its base's extent at the sliced dim, when known. *)
let slices g ~inputs =
  let shapes = Shape_infer.infer g ~inputs in
  List.filter_map
    (fun (n : Graph.node) ->
      match (n.Graph.n_op, n.Graph.n_inputs) with
      | ( ( Op.Access (Op.Slice { dim; step = 1 })
          | Op.Assign (Op.Slice { dim; step = 1 }) ),
          base :: rest ) ->
          let bounds =
            List.filter_map Shape_infer.constant_int
              (match rest with
              | [ _; s0; s1 ] | [ s0; s1 ] -> [ s0; s1 ]
              | _ -> [])
          in
          let extent =
            Option.bind (Shape_infer.shape_of shapes base) (fun s ->
                Shape_infer.extent s dim)
          in
          Some (bounds, extent)
      | _ -> None)
    (Graph.all_nodes g)

let full_range = function [ 0; stop ], Some n -> stop >= n | _ -> false

let test_fold_full_slices () =
  let optimized name =
    let w = Option.get (Registry.find name) in
    let batch = w.default_batch and seq = w.default_seq in
    let g = Workload.graph w ~batch ~seq in
    let args = w.inputs ~batch ~seq in
    let inputs = Functs_exec.Engine.input_shapes args in
    let fg = Graph.clone g in
    ignore (Passes.tensorssa_pipeline ~inputs fg);
    check (name ^ ": outputs bitwise equal to the unfolded graph's") true
      (Functs_exec.Equiv.bitwise
         (Eval.run g (clone_args args))
         (Eval.run fg (clone_args args)));
    slices fg ~inputs
  in
  check "fcos keeps no full-range slice or slice assign" false
    (List.exists full_range (optimized "fcos"));
  check "yolact keeps its partial 992:1024 slice" true
    (List.exists (fun (b, _) -> b = [ 992; 1024 ]) (optimized "yolact"));
  (* a graph that still has mutations is left as it is *)
  let b = Builder.create "mutated" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let whole =
    Builder.op1 b
      (Op.Access (Op.Slice { dim = 0; step = 1 }))
      [ x; Builder.int b 0; Builder.int b 4 ]
  in
  let y = Builder.clone b x in
  ignore (Builder.fill_ b y (Builder.float b 0.));
  Builder.return b [ whole; y ];
  let g = Builder.graph b in
  let inputs = [ Some (Shape_infer.known [| 4; 3 |]) ] in
  ignore (Passes.optimize ~inputs g);
  check "a full-range slice beside a mutation stays" true
    (List.exists full_range (slices g ~inputs))

(* --- properties over all workloads --- *)

let prop_case name f =
  Alcotest.test_case name `Slow (fun () ->
      List.iter
        (fun (w : Workload.t) ->
          let seq = min w.default_seq 6 in
          let g = Workload.graph w ~batch:1 ~seq in
          let args = w.inputs ~batch:1 ~seq in
          f w g args)
        Registry.all)

let workload_props =
  [
    prop_case "fold+cse+dce preserve semantics on functionalized workloads"
      (fun w g args ->
        let expected = Eval.run (Graph.clone g) (clone_args args) in
        ignore (Convert.functionalize g);
        ignore (Fold.run g);
        ignore (Cse.run g);
        Dce.run g;
        Verifier.check_exn g;
        let got = Eval.run g (clone_args args) in
        check (w.name ^ " equivalent") true
          (List.for_all2 (Value.equal ~atol:1e-4) expected got));
    prop_case "defunctionalize roundtrip on workloads" (fun w g args ->
        let expected = Eval.run (Graph.clone g) (clone_args args) in
        ignore (Convert.functionalize g);
        ignore (Defunctionalize.run g);
        Verifier.check_exn g;
        let got = Eval.run g (clone_args args) in
        check (w.name ^ " roundtrip") true
          (List.for_all2 (Value.equal ~atol:1e-4) expected got));
  ]

let () =
  Alcotest.run "passes"
    [
      ( "cse",
        [
          Alcotest.test_case "merges duplicates" `Quick test_cse_merges_duplicates;
          Alcotest.test_case "chains in one pass" `Quick
            test_cse_chain_merges_in_one_pass;
          Alcotest.test_case "refuses mutation" `Quick test_cse_refuses_mutation;
          Alcotest.test_case "keeps float constants apart by bits" `Quick
            test_cse_keeps_float_bits;
          Alcotest.test_case "keeps clones" `Quick test_cse_never_merges_clones;
          Alcotest.test_case "scoped across blocks" `Quick
            test_cse_scoped_across_blocks;
          Alcotest.test_case "fig4 duplicate access" `Quick
            test_cse_on_functionalized_fig4;
        ] );
      ( "fold",
        [
          Alcotest.test_case "scalar chain" `Quick test_fold_scalar_chain;
          Alcotest.test_case "constant if" `Quick test_fold_constant_if;
          Alcotest.test_case "zero-trip loop" `Quick test_fold_zero_trip_loop;
          Alcotest.test_case "single-iteration unroll" `Quick
            test_fold_unroll_single_iteration;
          Alcotest.test_case "whole assign of an equal shape" `Quick
            test_fold_whole_assign;
          Alcotest.test_case "full-range slices fold away" `Quick
            test_fold_full_slices;
        ] );
      ( "defunctionalize",
        [
          Alcotest.test_case "fig4 roundtrip" `Quick
            test_defunctionalize_roundtrip_fig4;
          Alcotest.test_case "buffer reuse" `Quick
            test_buffer_reuse_recovers_inplace;
          Alcotest.test_case "no reuse when live" `Quick
            test_no_reuse_when_base_live;
        ] );
      ("workload-properties", workload_props);
    ]
