(* Graph IR: construction, surgery, printing, dominance, verification and
   DCE. *)

open Functs_ir
module S = Functs_tensor.Scalar

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let simple_graph () =
  let b = Builder.create "g" ~params:[ ("x", Dtype.Tensor); ("y", Dtype.Tensor) ] in
  let x = Builder.param b 0 and y = Builder.param b 1 in
  let s = Builder.add b x y in
  let p = Builder.mul b s s in
  Builder.return b [ p ];
  (b, Builder.graph b)

(* --- construction and queries --- *)

let test_build_and_verify () =
  let _, g = simple_graph () in
  Verifier.check_exn g;
  check_int "two nodes" 2 (Graph.size g);
  check_int "two params" 2 (List.length (Graph.params g));
  check_int "one return" 1 (List.length (Graph.returns g))

let test_node_index_insert () =
  let b, g = simple_graph () in
  let nodes = Graph.all_nodes g in
  let first = List.nth nodes 0 and second = List.nth nodes 1 in
  check_int "first" 0 (Graph.node_index first);
  check_int "second" 1 (Graph.node_index second);
  let x = Builder.param b 0 in
  let extra = Graph.make_node (Op.Unary S.Neg) [ x ] ~output_types:[ Dtype.Tensor ] in
  Graph.insert_before ~anchor:second extra;
  check_int "inserted between" 1 (Graph.node_index extra);
  check_int "shifted" 2 (Graph.node_index second);
  Verifier.check_exn g |> ignore |> fun () -> ()

let test_uses () =
  let _, g = simple_graph () in
  let nodes = Graph.all_nodes g in
  let add_node = List.nth nodes 0 in
  let sum_value = List.hd add_node.n_outputs in
  let uses = Graph.uses_in g sum_value in
  check_int "used twice by mul" 2 (List.length uses)

let test_replace_all_uses () =
  let b, g = simple_graph () in
  let x = Builder.param b 0 in
  let nodes = Graph.all_nodes g in
  let add_node = List.nth nodes 0 in
  let sum_value = List.hd add_node.n_outputs in
  Graph.replace_all_uses g ~old_value:sum_value ~new_value:x;
  check "no more uses" false (Graph.has_uses g sum_value);
  Graph.remove_node add_node;
  Verifier.check_exn g

let test_remove_with_uses_fails () =
  let _, g = simple_graph () in
  let add_node = List.nth (Graph.all_nodes g) 0 in
  check "refuses" true
    (try
       Graph.remove_node add_node;
       false
     with Invalid_argument _ -> true)

let test_clone_is_deep () =
  let _, g = simple_graph () in
  let g2 = Graph.clone g in
  Verifier.check_exn g2;
  check_int "same size" (Graph.size g) (Graph.size g2);
  (* Mutating the clone must not affect the original. *)
  let n = List.hd (Graph.all_nodes g2) in
  n.n_op <- Op.Unary S.Neg;
  let orig = List.hd (Graph.all_nodes g) in
  check "original op unchanged" true (orig.n_op = Op.Binary S.Add)

(* --- control flow structure --- *)

let loop_graph () =
  let b =
    Builder.create "loopy"
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let outs =
    Builder.loop b ~trip:n ~init:[ x ] ~body:(fun ~i ~carried ->
        ignore i;
        match carried with
        | [ acc ] -> [ Builder.add b acc acc ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

let test_loop_structure () =
  let g = loop_graph () in
  Verifier.check_exn g;
  let loop = List.find (fun (n : Graph.node) -> n.n_op = Op.Loop) (Graph.all_nodes g) in
  check_int "one block" 1 (List.length loop.n_blocks);
  let body = List.hd loop.n_blocks in
  check_int "params i + carried" 2 (List.length body.b_params);
  check_int "one return" 1 (List.length body.b_returns)

let test_if_structure () =
  let b = Builder.create "iffy" ~params:[ ("c", Dtype.Scalar Dtype.Bool) ] in
  let c = Builder.param b 0 in
  let outs =
    Builder.if_ b ~cond:c ~out_types:[ Dtype.Tensor ]
      ~then_:(fun () -> [ Builder.zeros b [| 2 |] ])
      ~else_:(fun () -> [ Builder.ones b [| 2 |] ])
  in
  Builder.return b outs;
  let g = Builder.graph b in
  Verifier.check_exn g;
  let ifn = List.find (fun (n : Graph.node) -> n.n_op = Op.If) (Graph.all_nodes g) in
  check_int "two blocks" 2 (List.length ifn.n_blocks)

(* --- printer --- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_printer_roundtrip_names () =
  let _, g = simple_graph () in
  let text = Printer.to_string g in
  check "has graph header" true
    (String.length text > 0 && String.sub text 0 5 = "graph");
  check "mentions aten::add" true (contains ~needle:"aten::add" text);
  check "mentions aten::mul" true (contains ~needle:"aten::mul" text);
  check "has return" true (contains ~needle:"return" text)

(* --- dominance --- *)

let test_dominance_linear () =
  let _, g = simple_graph () in
  let nodes = Graph.all_nodes g in
  let a = List.nth nodes 0 and m = List.nth nodes 1 in
  check "add dominates mul" true (Dominance.node_dominates a m);
  check "mul does not dominate add" false (Dominance.node_dominates m a);
  check "no self dominance" false (Dominance.node_dominates a a)

let test_dominance_across_blocks () =
  let g = loop_graph () in
  let nodes = Graph.all_nodes g in
  let loop = List.find (fun (n : Graph.node) -> n.n_op = Op.Loop) nodes in
  let body_node = List.hd (List.hd loop.n_blocks).b_nodes in
  (* The loop node itself does not dominate nodes inside its own body... *)
  check "loop does not dominate body" false (Dominance.node_dominates loop body_node);
  (* ...but graph params do. *)
  let x = List.hd (Graph.params g) in
  check "param dominates body node" true (Dominance.value_dominates x body_node);
  (* A value inside the body does not dominate nodes after the loop. *)
  let inner = List.hd body_node.n_outputs in
  check "inner value confined" false
    (Dominance.value_dominates inner loop)

(* --- verifier --- *)

let test_verifier_catches_use_before_def () =
  let b = Builder.create "bad" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let n1 = Graph.make_node (Op.Unary S.Neg) [ x ] ~output_types:[ Dtype.Tensor ] in
  let n2 =
    Graph.make_node (Op.Unary S.Exp) (n1.n_outputs) ~output_types:[ Dtype.Tensor ]
  in
  let g = Builder.graph b in
  (* Insert the consumer BEFORE the producer. *)
  Graph.append g.g_block n2;
  Graph.append g.g_block n1;
  Graph.set_returns g n2.n_outputs;
  check "verifier rejects" true (Result.is_error (Verifier.check g))

let test_verifier_catches_bad_if () =
  let b = Builder.create "badif" ~params:[ ("c", Dtype.Scalar Dtype.Bool) ] in
  let c = Builder.param b 0 in
  let node = Graph.make_node Op.If [ c ] ~output_types:[ Dtype.Tensor ] in
  let _ = Graph.add_block node in
  (* only one block: malformed *)
  let g = Builder.graph b in
  Graph.append g.g_block node;
  Graph.set_returns g node.n_outputs;
  check "verifier rejects single-block if" true (Result.is_error (Verifier.check g))

let test_verifier_accepts_all_workload_graphs () =
  (* The verifier must accept everything the frontend produces. *)
  List.iter
    (fun (w : Functs_workloads.Workload.t) ->
      let g = Functs_workloads.Workload.graph w ~batch:1 ~seq:4 in
      Verifier.check_exn g)
    Functs_workloads.Registry.all

(* --- DCE --- *)

let test_dce_removes_dead_chain () =
  let b, g = simple_graph () in
  let x = Builder.param b 0 in
  (* Append a dead chain. *)
  let d1 = Builder.exp b x in
  let _d2 = Builder.exp b d1 in
  let before = Graph.size g in
  let removed = Dce.removed_count g in
  check_int "removed two" 2 removed;
  check_int "size shrank" (before - 2) (Graph.size g);
  Verifier.check_exn g

let test_dce_keeps_mutations () =
  let b = Builder.create "mut" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let t = Builder.clone b x in
  let zero = Builder.int b 0 in
  let v = Builder.select b t ~dim:0 zero in
  let one = Builder.float b 1.0 in
  let _ = Builder.binary_ b S.Add v one in
  Builder.return b [ t ];
  let g = Builder.graph b in
  let size = Graph.size g in
  Dce.run g;
  check_int "nothing removed (mutation is live)" size (Graph.size g)

let test_dce_prunes_dead_loop_carried () =
  let b =
    Builder.create "deadcarry"
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let outs =
    Builder.loop b ~trip:n
      ~init:[ x; x ]
      ~body:(fun ~i ~carried ->
        ignore i;
        match carried with
        | [ a; bb ] -> [ Builder.add b a a; Builder.mul b bb bb ]
        | _ -> assert false)
  in
  (* Only the first carried output is used. *)
  Builder.return b [ List.nth outs 0 ];
  let g = Builder.graph b in
  Dce.run g;
  Verifier.check_exn g;
  let loop = List.find (fun (n : Graph.node) -> n.n_op = Op.Loop) (Graph.all_nodes g) in
  check_int "dead carried value pruned" 1 (List.length loop.n_outputs);
  check_int "body params pruned" 2 (List.length (List.hd loop.n_blocks).b_params)

(* A carried value whose output is unused but which feeds another slot
   through a nested If's block must stay: the If's output depends on
   what its blocks return, not only on its condition. *)
let test_dce_keeps_carried_read_through_if () =
  let b =
    Builder.create "carrythroughif"
      ~params:
        [ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int);
          ("c", Dtype.Scalar Dtype.Bool) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let c = Builder.param b 2 in
  let outs =
    Builder.loop b ~trip:n
      ~init:[ x; x ]
      ~body:(fun ~i ~carried ->
        ignore i;
        match carried with
        | [ a; bb ] ->
            let a' =
              Builder.if_ b ~cond:c ~out_types:[ Dtype.Tensor ]
                ~then_:(fun () -> [ Builder.add b a bb ])
                ~else_:(fun () -> [ a ])
            in
            [ List.hd a'; Builder.mul b bb bb ]
        | _ -> assert false)
  in
  Builder.return b [ List.nth outs 0 ];
  let g = Builder.graph b in
  Dce.run g;
  Verifier.check_exn g;
  let loop = List.find (fun (n : Graph.node) -> n.n_op = Op.Loop) (Graph.all_nodes g) in
  check_int "the slot read inside the If is kept" 2 (List.length loop.n_outputs)

let test_dce_prunes_dead_if_output () =
  let b = Builder.create "deadif" ~params:[ ("c", Dtype.Scalar Dtype.Bool) ] in
  let c = Builder.param b 0 in
  let outs =
    Builder.if_ b ~cond:c
      ~out_types:[ Dtype.Tensor; Dtype.Tensor ]
      ~then_:(fun () -> [ Builder.zeros b [| 2 |]; Builder.ones b [| 2 |] ])
      ~else_:(fun () -> [ Builder.ones b [| 2 |]; Builder.zeros b [| 2 |] ])
  in
  Builder.return b [ List.nth outs 1 ];
  let g = Builder.graph b in
  Dce.run g;
  Verifier.check_exn g;
  let ifn = List.find (fun (n : Graph.node) -> n.n_op = Op.If) (Graph.all_nodes g) in
  check_int "dead if output pruned" 1 (List.length ifn.n_outputs)

(* --- dot export --- *)

let test_dot_export () =
  let g = loop_graph () in
  let dot = Dot.graph_to_dot g in
  check "digraph header" true (contains ~needle:"digraph" dot);
  check "loop rendered" true (contains ~needle:"prim::Loop" dot);
  check "nested cluster" true (contains ~needle:"subgraph cluster_1" dot);
  check "return sink" true (contains ~needle:"-> ret" dot);
  check "balanced braces" true
    (let opens = ref 0 and closes = ref 0 in
     String.iter
       (fun c ->
         if c = '{' then incr opens else if c = '}' then incr closes)
       dot;
     !opens = !closes)

let test_dot_highlights_mutations () =
  let b = Builder.create "m" ~params:[ ("x", Dtype.Tensor) ] in
  let x = Builder.param b 0 in
  let t = Builder.clone b x in
  let _ = Builder.binary_ b S.Add t (Builder.float b 1.0) in
  Builder.return b [ t ];
  let dot = Dot.graph_to_dot (Builder.graph b) in
  check "mutation highlighted" true (contains ~needle:"#f4cccc" dot)

let () =
  Alcotest.run "ir"
    [
      ( "graph",
        [
          Alcotest.test_case "build and verify" `Quick test_build_and_verify;
          Alcotest.test_case "node index / insert" `Quick test_node_index_insert;
          Alcotest.test_case "uses" `Quick test_uses;
          Alcotest.test_case "replace all uses" `Quick test_replace_all_uses;
          Alcotest.test_case "remove with uses fails" `Quick
            test_remove_with_uses_fails;
          Alcotest.test_case "clone is deep" `Quick test_clone_is_deep;
        ] );
      ( "control-flow",
        [
          Alcotest.test_case "loop structure" `Quick test_loop_structure;
          Alcotest.test_case "if structure" `Quick test_if_structure;
        ] );
      ( "printer",
        [ Alcotest.test_case "renders ops" `Quick test_printer_roundtrip_names ] );
      ( "dominance",
        [
          Alcotest.test_case "linear" `Quick test_dominance_linear;
          Alcotest.test_case "across blocks" `Quick test_dominance_across_blocks;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "use before def" `Quick
            test_verifier_catches_use_before_def;
          Alcotest.test_case "malformed if" `Quick test_verifier_catches_bad_if;
          Alcotest.test_case "accepts workload graphs" `Quick
            test_verifier_accepts_all_workload_graphs;
        ] );
      ( "dot",
        [
          Alcotest.test_case "export" `Quick test_dot_export;
          Alcotest.test_case "mutation highlight" `Quick
            test_dot_highlights_mutations;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead chain" `Quick test_dce_removes_dead_chain;
          Alcotest.test_case "keeps mutations" `Quick test_dce_keeps_mutations;
          Alcotest.test_case "prunes dead loop carried" `Quick
            test_dce_prunes_dead_loop_carried;
          Alcotest.test_case "keeps carried value read through an if" `Quick
            test_dce_keeps_carried_read_through_if;
          Alcotest.test_case "prunes dead if output" `Quick
            test_dce_prunes_dead_if_output;
        ] );
    ]
