let unary fn t =
  let f = Scalar.apply_unary fn in
  let out = Tensor.zeros (Tensor.shape t) in
  Tensor.iteri t (fun index v -> Tensor.set out index (f v));
  out

(* Index into a tensor broadcast to [out_shape]: dimensions of size 1 (or
   missing leading dimensions) read index 0. *)
let broadcast_get t out_ndim index =
  let n = Tensor.ndim t in
  let sub = Array.make n 0 in
  for j = 0 to n - 1 do
    let i = j + (out_ndim - n) in
    sub.(j) <- (if (Tensor.shape t).(j) = 1 then 0 else index.(i))
  done;
  Tensor.get t sub

let binary fn a b =
  let f = Scalar.apply_binary fn in
  let out_shape = Shape.broadcast (Tensor.shape a) (Tensor.shape b) in
  let out = Tensor.zeros out_shape in
  let nd = Array.length out_shape in
  Shape.iter_indices out_shape (fun index ->
      Tensor.set out index (f (broadcast_get a nd index) (broadcast_get b nd index)));
  out

let add = binary Scalar.Add
let sub = binary Scalar.Sub
let mul = binary Scalar.Mul
let div = binary Scalar.Div
let neg = unary Scalar.Neg
let exp = unary Scalar.Exp
let sigmoid = unary Scalar.Sigmoid
let tanh = unary Scalar.Tanh
let relu = unary Scalar.Relu
let add_scalar t v = add t (Tensor.scalar v)

let matmul2d a b =
  let m = (Tensor.shape a).(0) and k = (Tensor.shape a).(1) in
  let k' = (Tensor.shape b).(0) and n = (Tensor.shape b).(1) in
  if k <> k' then
    invalid_arg
      (Printf.sprintf "Ops.matmul: inner dimensions %d and %d differ" k k');
  let out = Tensor.zeros [| m; n |] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (Tensor.get a [| i; l |] *. Tensor.get b [| l; j |])
      done;
      Tensor.set out [| i; j |] !acc
    done
  done;
  out

let matmul a b =
  match (Tensor.ndim a, Tensor.ndim b) with
  | 2, 2 -> matmul2d a b
  | 3, 2 ->
      let batch = (Tensor.shape a).(0) in
      let slices =
        List.init batch (fun i -> matmul2d (Tensor.select a ~dim:0 i) b)
      in
      let m = (Tensor.shape a).(1) and n = (Tensor.shape b).(1) in
      let out = Tensor.zeros [| batch; m; n |] in
      List.iteri
        (fun i s ->
          Tensor.iteri s (fun index v ->
              Tensor.set out [| i; index.(0); index.(1) |] v))
        slices;
      out
  | 3, 3 ->
      let ba = (Tensor.shape a).(0) and bb = (Tensor.shape b).(0) in
      if ba <> bb && ba <> 1 && bb <> 1 then
        invalid_arg "Ops.matmul: batch dimensions incompatible";
      let batch = max ba bb in
      let m = (Tensor.shape a).(1) and n = (Tensor.shape b).(2) in
      let out = Tensor.zeros [| batch; m; n |] in
      for i = 0 to batch - 1 do
        let sa = Tensor.select a ~dim:0 (if ba = 1 then 0 else i) in
        let sb = Tensor.select b ~dim:0 (if bb = 1 then 0 else i) in
        let s = matmul2d sa sb in
        Tensor.iteri s (fun index v ->
            Tensor.set out [| i; index.(0); index.(1) |] v)
      done;
      out
  | 1, 2 ->
      let r = matmul2d (Tensor.unsqueeze a ~dim:0) b in
      Tensor.select r ~dim:0 0
  | 2, 1 ->
      let r = matmul2d a (Tensor.unsqueeze b ~dim:1) in
      Tensor.select r ~dim:1 0
  | na, nb ->
      invalid_arg (Printf.sprintf "Ops.matmul: unsupported ranks %d x %d" na nb)

(* Fold [f] over each lane along [dim]; the result drops or keeps the
   dimension according to [keepdim]. *)
let reduce_dim t ~dim ~keepdim ~init ~f =
  let dim = Shape.normalize_dim ~ndim:(Tensor.ndim t) dim in
  let in_shape = Tensor.shape t in
  let out_shape =
    Array.init (Tensor.ndim t) (fun i -> if i = dim then 1 else in_shape.(i))
  in
  let out = Tensor.zeros out_shape in
  Shape.iter_indices out_shape (fun index ->
      let acc = ref init in
      let sub = Array.copy index in
      for j = 0 to in_shape.(dim) - 1 do
        sub.(dim) <- j;
        acc := f !acc (Tensor.get t sub)
      done;
      Tensor.set out index !acc);
  if keepdim then out else Tensor.squeeze out ~dim

let sum_dim t ~dim ~keepdim = reduce_dim t ~dim ~keepdim ~init:0.0 ~f:( +. )

let max_dim t ~dim ~keepdim =
  reduce_dim t ~dim ~keepdim ~init:Float.neg_infinity ~f:Float.max

let sum t =
  let acc = ref 0.0 in
  Tensor.iteri t (fun _ v -> acc := !acc +. v);
  Tensor.scalar !acc

let mean t =
  let n = Tensor.numel t in
  if n = 0 then Tensor.scalar 0.0
  else Tensor.scalar (Tensor.item (sum t) /. float_of_int n)

let softmax t ~dim =
  let dim = Shape.normalize_dim ~ndim:(Tensor.ndim t) dim in
  let m = max_dim t ~dim ~keepdim:true in
  let e = unary Scalar.Exp (binary Scalar.Sub t m) in
  let s = sum_dim e ~dim ~keepdim:true in
  binary Scalar.Div e s

let cat ts ~dim =
  match ts with
  | [] -> invalid_arg "Ops.cat: empty list"
  | first :: _ ->
      let dim = Shape.normalize_dim ~ndim:(Tensor.ndim first) dim in
      let base = Tensor.shape first in
      let total =
        List.fold_left
          (fun acc t ->
            let s = Tensor.shape t in
            if Array.length s <> Array.length base then
              invalid_arg "Ops.cat: rank mismatch";
            Array.iteri
              (fun i d ->
                if i <> dim && d <> base.(i) then
                  invalid_arg "Ops.cat: shape mismatch off the cat dimension")
              s;
            acc + s.(dim))
          0 ts
      in
      let out_shape =
        Array.init (Array.length base) (fun i -> if i = dim then total else base.(i))
      in
      let out = Tensor.zeros out_shape in
      let pos = ref 0 in
      List.iter
        (fun t ->
          Tensor.iteri t (fun index v ->
              let dst = Array.copy index in
              dst.(dim) <- dst.(dim) + !pos;
              Tensor.set out dst v);
          pos := !pos + (Tensor.shape t).(dim))
        ts;
      out

let stack ts ~dim = cat (List.map (fun t -> Tensor.unsqueeze t ~dim) ts) ~dim

let where cond a b =
  let shape =
    Shape.broadcast
      (Shape.broadcast (Tensor.shape cond) (Tensor.shape a))
      (Tensor.shape b)
  in
  let out = Tensor.zeros shape in
  let nd = Array.length shape in
  Shape.iter_indices shape (fun index ->
      let c = broadcast_get cond nd index in
      let v = if c <> 0.0 then broadcast_get a nd index else broadcast_get b nd index in
      Tensor.set out index v);
  out

let cumsum t ~dim =
  let dim = Shape.normalize_dim ~ndim:(Tensor.ndim t) dim in
  let out = Tensor.clone t in
  let shape = Tensor.shape out in
  let lane_shape =
    Array.init (Array.length shape) (fun i -> if i = dim then 1 else shape.(i))
  in
  Shape.iter_indices lane_shape (fun index ->
      let sub = Array.copy index in
      let acc = ref 0.0 in
      for j = 0 to shape.(dim) - 1 do
        sub.(dim) <- j;
        acc := !acc +. Tensor.get out sub;
        Tensor.set out sub !acc
      done);
  out
