(* When [src] aliases [dst] (e.g. overlapping views of one storage) the
   broadcast source is snapshotted before writing, so the mutation reads
   consistent pre-mutation data. *)
let copy_ dst src =
  if not (Shape.broadcastable (Tensor.shape src) (Tensor.shape dst)) then
    invalid_arg
      (Printf.sprintf "Inplace.copy_: cannot broadcast %s to %s"
         (Shape.to_string (Tensor.shape src))
         (Shape.to_string (Tensor.shape dst)));
  let expanded =
    if Shape.equal (Tensor.shape src) (Tensor.shape dst) then src
    else Tensor.expand src (Tensor.shape dst)
  in
  let snapshot =
    if Tensor.same_storage dst src then Tensor.clone expanded else expanded
  in
  Tensor.mapi_inplace dst (fun index _ -> Tensor.get snapshot index);
  dst

let fill_ dst v =
  Tensor.mapi_inplace dst (fun _ _ -> v);
  dst

let unary_ fn dst =
  let f = Scalar.apply_unary fn in
  Tensor.mapi_inplace dst (fun _ v -> f v);
  dst

let binary_ fn dst src =
  let f = Scalar.apply_binary fn in
  let expanded =
    if Shape.equal (Tensor.shape src) (Tensor.shape dst) then src
    else Tensor.expand src (Tensor.shape dst)
  in
  let snapshot =
    if Tensor.same_storage dst src then Tensor.clone expanded else expanded
  in
  Tensor.mapi_inplace dst (fun index v -> f v (Tensor.get snapshot index));
  dst

let add_ = binary_ Scalar.Add
let relu_ = unary_ Scalar.Relu
