(* Tensor runtime: strided views, aliasing, mutation, pure operators, and
   qcheck property tests on the view/mutation laws the conversion relies
   on. *)

open Functs_tensor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let t_3x4 () = Tensor.of_array [| 3; 4 |] (Array.init 12 float_of_int)

(* --- Shape --- *)

let test_numel () =
  check_int "3x4" 12 (Shape.numel [| 3; 4 |]);
  check_int "scalar" 1 (Shape.numel [||]);
  check_int "zero dim" 0 (Shape.numel [| 3; 0; 2 |])

let test_strides () =
  Alcotest.(check (array int)) "3x4" [| 4; 1 |] (Shape.row_major_strides [| 3; 4 |]);
  Alcotest.(check (array int))
    "2x3x4" [| 12; 4; 1 |]
    (Shape.row_major_strides [| 2; 3; 4 |])

let test_broadcast () =
  Alcotest.(check (array int))
    "[3,1] x [1,4]" [| 3; 4 |]
    (Shape.broadcast [| 3; 1 |] [| 1; 4 |]);
  Alcotest.(check (array int))
    "scalar x [2,2]" [| 2; 2 |]
    (Shape.broadcast [||] [| 2; 2 |]);
  check "incompatible" false (Shape.broadcastable [| 3 |] [| 4 |]);
  check "with zero" true (Shape.broadcastable [| 1 |] [| 0 |])

let test_iter_order () =
  let order = ref [] in
  Shape.iter_indices [| 2; 2 |] (fun idx -> order := Array.copy idx :: !order);
  Alcotest.(check int) "4 visits" 4 (List.length !order);
  let expected = [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ] in
  check "row major" true (List.rev !order = expected)

(* --- Views and aliasing --- *)

let test_select_aliases () =
  let t = t_3x4 () in
  let row = Tensor.select t ~dim:0 1 in
  check "same storage" true (Tensor.same_storage t row);
  Alcotest.(check (float 0.0)) "row[0] = t[1,0]" 4.0 (Tensor.get row [| 0 |]);
  Tensor.set row [| 2 |] 99.0;
  Alcotest.(check (float 0.0)) "write through" 99.0 (Tensor.get t [| 1; 2 |])

let test_select_negative () =
  let t = t_3x4 () in
  let last = Tensor.select t ~dim:0 (-1) in
  Alcotest.(check (float 0.0)) "last row" 8.0 (Tensor.get last [| 0 |])

let test_slice () =
  let t = t_3x4 () in
  let cols = Tensor.slice t ~dim:1 ~start:1 ~stop:3 ~step:1 in
  Alcotest.(check (array int)) "shape" [| 3; 2 |] (Tensor.shape cols);
  Alcotest.(check (float 0.0)) "cols[0,0]" 1.0 (Tensor.get cols [| 0; 0 |]);
  check "aliases" true (Tensor.same_storage t cols)

let test_slice_step_and_clamp () =
  let t = Tensor.arange 10 in
  let s = Tensor.slice t ~dim:0 ~start:1 ~stop:100 ~step:3 in
  Alcotest.(check (array int)) "clamped len" [| 3 |] (Tensor.shape s);
  check "values" true (Tensor.to_flat_array s = [| 1.; 4.; 7. |]);
  let neg = Tensor.slice t ~dim:0 ~start:(-3) ~stop:10 ~step:1 in
  check "negative start" true (Tensor.to_flat_array neg = [| 7.; 8.; 9. |])

let test_empty_slice () =
  let t = Tensor.arange 5 in
  let e = Tensor.slice t ~dim:0 ~start:4 ~stop:2 ~step:1 in
  check_int "empty" 0 (Tensor.numel e)

let test_permute_transpose () =
  let t = t_3x4 () in
  let tt = Tensor.transpose t ~dim0:0 ~dim1:1 in
  Alcotest.(check (array int)) "shape" [| 4; 3 |] (Tensor.shape tt);
  Alcotest.(check (float 0.0)) "tt[1,2] = t[2,1]" 9.0 (Tensor.get tt [| 1; 2 |]);
  check "not contiguous" false (Tensor.is_contiguous tt);
  check "aliases" true (Tensor.same_storage t tt)

let test_expand () =
  let t = Tensor.of_array [| 1; 3 |] [| 1.; 2.; 3. |] in
  let e = Tensor.expand t [| 4; 3 |] in
  Alcotest.(check (float 0.0)) "broadcast row" 2.0 (Tensor.get e [| 3; 1 |]);
  check "aliases" true (Tensor.same_storage t e)

let test_reshape_view () =
  let t = Tensor.arange 12 in
  let r = Tensor.reshape_view t [| 3; 4 |] in
  check "aliases" true (Tensor.same_storage t r);
  Alcotest.(check (float 0.0)) "r[2,3]" 11.0 (Tensor.get r [| 2; 3 |]);
  let tt = Tensor.transpose r ~dim0:0 ~dim1:1 in
  Alcotest.check_raises "non-contiguous reshape_view rejected"
    (Invalid_argument "Tensor.reshape_view: tensor is not contiguous")
    (fun () -> ignore (Tensor.reshape_view tt [| 12 |]))

let test_unsqueeze_squeeze () =
  let t = Tensor.arange 3 in
  let u = Tensor.unsqueeze t ~dim:0 in
  Alcotest.(check (array int)) "unsqueezed" [| 1; 3 |] (Tensor.shape u);
  let s = Tensor.squeeze u ~dim:0 in
  Alcotest.(check (array int)) "squeezed" [| 3 |] (Tensor.shape s)

let test_clone_independent () =
  let t = t_3x4 () in
  let c = Tensor.clone t in
  check "fresh storage" false (Tensor.same_storage t c);
  Tensor.set c [| 0; 0 |] 42.0;
  Alcotest.(check (float 0.0)) "original untouched" 0.0 (Tensor.get t [| 0; 0 |])

(* --- In-place mutation --- *)

let test_copy_through_view () =
  let t = t_3x4 () in
  let row = Tensor.select t ~dim:0 0 in
  let src = Tensor.of_array [| 4 |] [| 9.; 9.; 9.; 9. |] in
  ignore (Inplace.copy_ row src);
  Alcotest.(check (float 0.0)) "base mutated" 9.0 (Tensor.get t [| 0; 3 |]);
  Alcotest.(check (float 0.0)) "other rows kept" 4.0 (Tensor.get t [| 1; 0 |])

let test_copy_broadcast_scalar () =
  let t = t_3x4 () in
  ignore (Inplace.copy_ t (Tensor.scalar 5.0));
  check "all fives" true (Array.for_all (Float.equal 5.0) (Tensor.to_flat_array t))

let test_inplace_binary_overlapping () =
  (* dst and src share storage: t[0] += t[1] must read a snapshot. *)
  let t = Tensor.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let a = Tensor.select t ~dim:0 0 in
  let b = Tensor.select t ~dim:0 1 in
  ignore (Inplace.add_ a b);
  check "sum" true (Tensor.to_flat_array t = [| 4.; 6.; 3.; 4. |])

let test_self_copy_overlap () =
  (* x[0:2] = x[1:3]: overlapping same-storage copy. *)
  let t = Tensor.arange 4 in
  let dst = Tensor.slice t ~dim:0 ~start:0 ~stop:2 ~step:1 in
  let src = Tensor.slice t ~dim:0 ~start:1 ~stop:3 ~step:1 in
  ignore (Inplace.copy_ dst src);
  check "shifted" true (Tensor.to_flat_array t = [| 1.; 2.; 2.; 3. |])

let test_fill_strided () =
  let t = t_3x4 () in
  let col = Tensor.select t ~dim:1 2 in
  ignore (Inplace.fill_ col 0.0);
  Alcotest.(check (float 0.0)) "column zeroed" 0.0 (Tensor.get t [| 2; 2 |]);
  Alcotest.(check (float 0.0)) "neighbors kept" 1.0 (Tensor.get t [| 0; 1 |])

let test_unary_inplace () =
  let t = Tensor.of_array [| 2 |] [| -1.; 4.0 |] in
  ignore (Inplace.relu_ t);
  check "relu" true (Tensor.to_flat_array t = [| 0.; 4. |])

(* --- Pure ops --- *)

let test_binary_broadcast () =
  let a = Tensor.of_array [| 2; 1 |] [| 1.; 2. |] in
  let b = Tensor.of_array [| 1; 3 |] [| 10.; 20.; 30. |] in
  let s = Ops.add a b in
  Alcotest.(check (array int)) "shape" [| 2; 3 |] (Tensor.shape s);
  Alcotest.(check (float 0.0)) "s[1,2]" 32.0 (Tensor.get s [| 1; 2 |])

let test_matmul2d () =
  let a = Tensor.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Tensor.of_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  let c = Ops.matmul a b in
  check "result" true (Tensor.to_flat_array c = [| 58.; 64.; 139.; 154. |])

let test_matmul_batched () =
  let a = Tensor.ones [| 2; 2; 3 |] in
  let b = Tensor.ones [| 2; 3; 4 |] in
  let c = Ops.matmul a b in
  Alcotest.(check (array int)) "shape" [| 2; 2; 4 |] (Tensor.shape c);
  Alcotest.(check (float 1e-9)) "entries" 3.0 (Tensor.get c [| 1; 1; 3 |])

let test_matmul_vec () =
  let m = Tensor.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let v = Tensor.of_array [| 2 |] [| 1.; 1. |] in
  let mv = Ops.matmul m v in
  check "m@v" true (Tensor.to_flat_array mv = [| 3.; 7. |]);
  let vm = Ops.matmul v m in
  check "v@m" true (Tensor.to_flat_array vm = [| 4.; 6. |])

let test_matmul_mismatch () =
  let a = Tensor.ones [| 2; 3 |] and b = Tensor.ones [| 4; 2 |] in
  check "raises" true
    (try
       ignore (Ops.matmul a b);
       false
     with Invalid_argument _ -> true)

let test_softmax () =
  let t = Tensor.of_array [| 2; 2 |] [| 0.; 0.; 1000.; 1000. |] in
  let s = Ops.softmax t ~dim:1 in
  Alcotest.(check (float 1e-6)) "uniform" 0.5 (Tensor.get s [| 0; 1 |]);
  Alcotest.(check (float 1e-6)) "stable for large values" 0.5
    (Tensor.get s [| 1; 0 |])

let test_reductions () =
  let t = t_3x4 () in
  Alcotest.(check (float 1e-9)) "sum" 66.0 (Tensor.item (Ops.sum t));
  Alcotest.(check (float 1e-9)) "mean" 5.5 (Tensor.item (Ops.mean t));
  let s = Ops.sum_dim t ~dim:1 ~keepdim:false in
  Alcotest.(check (array int)) "sum_dim shape" [| 3 |] (Tensor.shape s);
  Alcotest.(check (float 1e-9)) "row sum" 6.0 (Tensor.get s [| 0 |]);
  let m = Ops.max_dim t ~dim:0 ~keepdim:true in
  Alcotest.(check (array int)) "keepdim" [| 1; 4 |] (Tensor.shape m);
  Alcotest.(check (float 1e-9)) "col max" 11.0 (Tensor.get m [| 0; 3 |])

let test_cat_stack () =
  let a = Tensor.ones [| 2; 2 |] and b = Tensor.zeros [| 1; 2 |] in
  let c = Ops.cat [ a; b ] ~dim:0 in
  Alcotest.(check (array int)) "cat shape" [| 3; 2 |] (Tensor.shape c);
  let s = Ops.stack [ Tensor.arange 3; Tensor.arange 3 ] ~dim:0 in
  Alcotest.(check (array int)) "stack shape" [| 2; 3 |] (Tensor.shape s)

(* [concat_axis_into] against the element-wise [Ops.cat], writing into a
   destination filled with a sentinel so an element the blits miss
   shows. *)
let block shape base =
  Tensor.of_array shape
    (Array.init (Shape.numel shape) (fun i -> base +. float_of_int i))

let concat_into_matches ~dim parts =
  let want = Ops.cat parts ~dim in
  let out = Tensor.full (Tensor.shape want) Float.nan in
  Tensor.concat_axis_into ~dim parts out;
  check "concat_axis_into equals cat" true
    (Tensor.to_flat_array out = Tensor.to_flat_array want)

let test_concat_into_dim0 () =
  concat_into_matches ~dim:0
    [ block [| 1; 3 |] 0.; block [| 2; 3 |] 100.; block [| 1; 3 |] 200. ]

(* lstm's [x] is [seq; batch; gates]: requests concatenate on axis 1, so
   every part lands as one run per leading index. *)
let test_concat_into_inner () =
  concat_into_matches ~dim:1
    [ block [| 3; 1; 4 |] 0.; block [| 3; 2; 4 |] 100.; block [| 3; 1; 4 |] 200. ]

let test_concat_into_strided () =
  let t = Tensor.transpose (block [| 3; 2 |] 0.) ~dim0:0 ~dim1:1 in
  check "the part is a strided view" false (Tensor.is_contiguous t);
  concat_into_matches ~dim:0 [ block [| 1; 3 |] 100.; t ];
  concat_into_matches ~dim:1 [ t; block [| 2; 1 |] 100. ]

let test_concat_into_bad_dest () =
  let parts = [ block [| 2; 3 |] 0.; block [| 2; 3 |] 100. ] in
  let raises out =
    match Tensor.concat_axis_into ~dim:0 parts out with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check "too short a destination" true (raises (Tensor.zeros [| 3; 3 |]));
  check "the other axis's shape" true (raises (Tensor.zeros [| 2; 6 |]));
  check "a strided destination" true
    (raises (Tensor.transpose (Tensor.zeros [| 3; 4 |]) ~dim0:0 ~dim1:1))

let test_where_cumsum () =
  let c = Tensor.of_array [| 3 |] [| 1.; 0.; 1. |] in
  let w = Ops.where c (Tensor.scalar 10.0) (Tensor.scalar 20.0) in
  check "where" true (Tensor.to_flat_array w = [| 10.; 20.; 10. |]);
  let cs = Ops.cumsum (Tensor.arange 4) ~dim:0 in
  check "cumsum" true (Tensor.to_flat_array cs = [| 0.; 1.; 3.; 6. |])

let test_allclose () =
  let a = Tensor.ones [| 2 |] in
  let b = Ops.add_scalar (Tensor.ones [| 2 |]) 1e-9 in
  check "close" true (Tensor.allclose a b);
  check "shape mismatch" false (Tensor.allclose a (Tensor.ones [| 3 |]))

(* --- qcheck properties --- *)

let small_shape =
  QCheck2.Gen.(list_size (int_range 1 3) (int_range 1 4) |> map Array.of_list)

let tensor_gen =
  QCheck2.Gen.(
    small_shape >>= fun shape ->
    let n = Shape.numel shape in
    array_size (return n) (float_bound_inclusive 10.0) >|= fun data ->
    Tensor.of_array shape data)

let prop_clone_equal =
  QCheck2.Test.make ~name:"clone preserves contents" ~count:100 tensor_gen
    (fun t -> Tensor.allclose t (Tensor.clone t))

let prop_select_get =
  QCheck2.Test.make ~name:"select dim0 agrees with direct indexing" ~count:100
    QCheck2.Gen.(pair tensor_gen (int_bound 100))
    (fun (t, k) ->
      QCheck2.assume (Tensor.ndim t >= 1 && (Tensor.shape t).(0) > 0);
      let idx = k mod (Tensor.shape t).(0) in
      let sel = Tensor.select t ~dim:0 idx in
      let ok = ref true in
      Tensor.iteri sel (fun sub v ->
          let full = Array.append [| idx |] sub in
          if not (Float.equal (Tensor.get t full) v) then ok := false);
      !ok)

let prop_transpose_involution =
  QCheck2.Test.make ~name:"transpose twice is identity" ~count:100 tensor_gen
    (fun t ->
      QCheck2.assume (Tensor.ndim t >= 2);
      let tt =
        Tensor.transpose (Tensor.transpose t ~dim0:0 ~dim1:1) ~dim0:0 ~dim1:1
      in
      Tensor.allclose t tt)

let prop_mutation_aliases =
  QCheck2.Test.make ~name:"fill through any row view mutates the base"
    ~count:100
    QCheck2.Gen.(pair tensor_gen (int_bound 100))
    (fun (t, k) ->
      QCheck2.assume (Tensor.ndim t >= 1 && (Tensor.shape t).(0) > 0);
      let idx = k mod (Tensor.shape t).(0) in
      let view = Tensor.select t ~dim:0 idx in
      ignore (Inplace.fill_ view 7.5);
      let ok = ref true in
      Tensor.iteri view (fun sub _ ->
          let full = Array.append [| idx |] sub in
          if not (Float.equal (Tensor.get t full) 7.5) then ok := false);
      !ok)

let prop_add_commutes =
  QCheck2.Test.make ~name:"add commutes" ~count:100
    QCheck2.Gen.(pair tensor_gen tensor_gen)
    (fun (a, b) ->
      QCheck2.assume (Shape.broadcastable (Tensor.shape a) (Tensor.shape b));
      Tensor.allclose (Ops.add a b) (Ops.add b a))

let prop_expand_reads =
  QCheck2.Test.make ~name:"expand repeats without copying" ~count:100 tensor_gen
    (fun t ->
      let e =
        Tensor.expand (Tensor.unsqueeze t ~dim:0)
          (Array.append [| 3 |] (Tensor.shape t))
      in
      Tensor.same_storage t e
      && Tensor.allclose (Tensor.select e ~dim:0 0) (Tensor.select e ~dim:0 2))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_clone_equal;
      prop_select_get;
      prop_transpose_involution;
      prop_mutation_aliases;
      prop_add_commutes;
      prop_expand_reads;
    ]

let () =
  Alcotest.run "tensor"
    [
      ( "shape",
        [
          Alcotest.test_case "numel" `Quick test_numel;
          Alcotest.test_case "strides" `Quick test_strides;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "iteration order" `Quick test_iter_order;
        ] );
      ( "views",
        [
          Alcotest.test_case "select aliases" `Quick test_select_aliases;
          Alcotest.test_case "negative select" `Quick test_select_negative;
          Alcotest.test_case "slice" `Quick test_slice;
          Alcotest.test_case "slice step/clamp" `Quick test_slice_step_and_clamp;
          Alcotest.test_case "empty slice" `Quick test_empty_slice;
          Alcotest.test_case "permute/transpose" `Quick test_permute_transpose;
          Alcotest.test_case "expand" `Quick test_expand;
          Alcotest.test_case "reshape view" `Quick test_reshape_view;
          Alcotest.test_case "unsqueeze/squeeze" `Quick test_unsqueeze_squeeze;
          Alcotest.test_case "clone independence" `Quick test_clone_independent;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "copy through view" `Quick test_copy_through_view;
          Alcotest.test_case "copy broadcast scalar" `Quick
            test_copy_broadcast_scalar;
          Alcotest.test_case "overlapping add_" `Quick
            test_inplace_binary_overlapping;
          Alcotest.test_case "overlapping self copy" `Quick test_self_copy_overlap;
          Alcotest.test_case "fill strided column" `Quick test_fill_strided;
          Alcotest.test_case "unary inplace" `Quick test_unary_inplace;
        ] );
      ( "ops",
        [
          Alcotest.test_case "broadcast add" `Quick test_binary_broadcast;
          Alcotest.test_case "matmul 2d" `Quick test_matmul2d;
          Alcotest.test_case "matmul batched" `Quick test_matmul_batched;
          Alcotest.test_case "matmul vector" `Quick test_matmul_vec;
          Alcotest.test_case "matmul mismatch" `Quick test_matmul_mismatch;
          Alcotest.test_case "softmax" `Quick test_softmax;
          Alcotest.test_case "reductions" `Quick test_reductions;
          Alcotest.test_case "cat/stack" `Quick test_cat_stack;
          Alcotest.test_case "concat_axis_into dim 0" `Quick
            test_concat_into_dim0;
          Alcotest.test_case "concat_axis_into inner dim" `Quick
            test_concat_into_inner;
          Alcotest.test_case "concat_axis_into strided part" `Quick
            test_concat_into_strided;
          Alcotest.test_case "concat_axis_into wrong destination" `Quick
            test_concat_into_bad_dest;
          Alcotest.test_case "where/cumsum" `Quick test_where_cumsum;
          Alcotest.test_case "allclose" `Quick test_allclose;
        ] );
      ("properties", props);
    ]
