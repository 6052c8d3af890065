type t = {
  storage : Storage.t;
  offset : int;
  shape : Shape.t;
  strides : int array;
}

let shape t = t.shape
let ndim t = Array.length t.shape
let numel t = Shape.numel t.shape
let same_storage a b = Storage.same a.storage b.storage

let is_contiguous t =
  let expected = Shape.row_major_strides t.shape in
  let ok = ref true in
  Array.iteri
    (fun i size -> if size > 1 && t.strides.(i) <> expected.(i) then ok := false)
    t.shape;
  !ok

let linear_index t index =
  let pos = ref t.offset in
  Array.iteri (fun d i -> pos := !pos + (i * t.strides.(d))) index;
  !pos

let get t index = Storage.get t.storage (linear_index t index)
let set t index v = Storage.set t.storage (linear_index t index) v

let of_storage storage shape =
  if Storage.length storage <> Shape.numel shape then
    invalid_arg "Tensor.of_storage: element-count mismatch";
  { storage; offset = 0; shape; strides = Shape.row_major_strides shape }

let zeros shape = of_storage (Storage.create (Shape.numel shape)) shape

(* Uninitialized buffer for internal callers that overwrite every
   element before the tensor escapes (concat below).  Skipping the
   zero fill halves the memory traffic of those bulk copies. *)
let uninit shape =
  of_storage (Storage.of_array (Array.create_float (Shape.numel shape))) shape

let full shape v =
  let t = zeros shape in
  Shape.iter_indices shape (fun index -> set t index v);
  t

let ones shape = full shape 1.0
let scalar v = full [||] v

let of_array shape data =
  if Array.length data <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Tensor.of_array: %d elements for shape %s"
         (Array.length data) (Shape.to_string shape));
  of_storage (Storage.of_array (Array.copy data)) shape

let arange n = of_array [| n |] (Array.init n float_of_int)

let rand state shape =
  let t = zeros shape in
  Shape.iter_indices shape (fun index -> set t index (Random.State.float state 1.0));
  t

let item t =
  if numel t <> 1 then
    invalid_arg
      (Printf.sprintf "Tensor.item: tensor of shape %s has %d elements"
         (Shape.to_string t.shape) (numel t));
  get t (Array.make (ndim t) 0)

let iteri t f = Shape.iter_indices t.shape (fun index -> f index (get t index))

let mapi_inplace t f =
  Shape.iter_indices t.shape (fun index -> set t index (f index (get t index)))

let to_flat_array t =
  let out = Array.make (numel t) 0.0 in
  let i = ref 0 in
  iteri t (fun _ v ->
      out.(!i) <- v;
      incr i);
  out

let allclose ?(atol = 1e-8) ?(rtol = 1e-5) a b =
  if not (Shape.equal a.shape b.shape) then false
  else begin
    let ok = ref true in
    iteri a (fun index va ->
        let vb = get b index in
        let bound = atol +. (rtol *. Float.abs vb) in
        if Float.abs (va -. vb) > bound || Float.is_nan va <> Float.is_nan vb
        then ok := false);
    !ok
  end

(* Views *)

let select t ~dim idx =
  let dim = Shape.normalize_dim ~ndim:(ndim t) dim in
  let idx = Shape.normalize_index ~size:t.shape.(dim) idx in
  let drop arr = Array.init (Array.length arr - 1) (fun i -> if i < dim then arr.(i) else arr.(i + 1)) in
  {
    storage = t.storage;
    offset = t.offset + (idx * t.strides.(dim));
    shape = drop t.shape;
    strides = drop t.strides;
  }

let slice t ~dim ~start ~stop ~step =
  if step < 1 then invalid_arg "Tensor.slice: step must be >= 1";
  let dim = Shape.normalize_dim ~ndim:(ndim t) dim in
  let size = t.shape.(dim) in
  let clamp v = max 0 (min size v) in
  let start = clamp (if start < 0 then start + size else start) in
  let stop = clamp (if stop < 0 then stop + size else stop) in
  let len = if stop > start then 1 + ((stop - start - 1) / step) else 0 in
  let shape = Array.copy t.shape and strides = Array.copy t.strides in
  shape.(dim) <- len;
  strides.(dim) <- t.strides.(dim) * step;
  { t with offset = t.offset + (start * t.strides.(dim)); shape; strides }

let narrow t ~dim ~start ~len = slice t ~dim ~start ~stop:(start + len) ~step:1

let permute t dims =
  let n = ndim t in
  if Array.length dims <> n then invalid_arg "Tensor.permute: rank mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun d ->
      let d = Shape.normalize_dim ~ndim:n d in
      if seen.(d) then invalid_arg "Tensor.permute: duplicate dimension";
      seen.(d) <- true)
    dims;
  let shape = Array.map (fun d -> t.shape.(Shape.normalize_dim ~ndim:n d)) dims in
  let strides = Array.map (fun d -> t.strides.(Shape.normalize_dim ~ndim:n d)) dims in
  { t with shape; strides }

let transpose t ~dim0 ~dim1 =
  let n = ndim t in
  let dim0 = Shape.normalize_dim ~ndim:n dim0
  and dim1 = Shape.normalize_dim ~ndim:n dim1 in
  let dims = Array.init n (fun i -> i) in
  dims.(dim0) <- dim1;
  dims.(dim1) <- dim0;
  permute t dims

let expand t sizes =
  let n = ndim t and m = Array.length sizes in
  if m < n then invalid_arg "Tensor.expand: cannot drop dimensions";
  let shape = Array.make m 0 and strides = Array.make m 0 in
  for i = 0 to m - 1 do
    let j = i - (m - n) in
    if j < 0 then begin
      shape.(i) <- sizes.(i);
      strides.(i) <- 0
    end
    else if t.shape.(j) = sizes.(i) then begin
      shape.(i) <- sizes.(i);
      strides.(i) <- t.strides.(j)
    end
    else if t.shape.(j) = 1 then begin
      shape.(i) <- sizes.(i);
      strides.(i) <- 0
    end
    else
      invalid_arg
        (Printf.sprintf "Tensor.expand: cannot expand %s to %s"
           (Shape.to_string t.shape) (Shape.to_string sizes))
  done;
  { t with shape; strides }

let reshape_view t shape =
  if Shape.numel shape <> numel t then
    invalid_arg
      (Printf.sprintf "Tensor.reshape: %s incompatible with %s"
         (Shape.to_string t.shape) (Shape.to_string shape));
  if not (is_contiguous t) then
    invalid_arg "Tensor.reshape_view: tensor is not contiguous";
  { t with shape; strides = Shape.row_major_strides shape }

let insert arr pos v =
  Array.init
    (Array.length arr + 1)
    (fun i -> if i < pos then arr.(i) else if i = pos then v else arr.(i - 1))

let unsqueeze t ~dim =
  let n = ndim t in
  let dim = if dim < 0 then dim + n + 1 else dim in
  if dim < 0 || dim > n then invalid_arg "Tensor.unsqueeze: bad dim";
  { t with shape = insert t.shape dim 1; strides = insert t.strides dim 0 }

let squeeze t ~dim =
  let dim = Shape.normalize_dim ~ndim:(ndim t) dim in
  if t.shape.(dim) <> 1 then invalid_arg "Tensor.squeeze: dimension is not 1";
  let drop arr =
    Array.init (Array.length arr - 1) (fun i -> if i < dim then arr.(i) else arr.(i + 1))
  in
  { t with shape = drop t.shape; strides = drop t.strides }

let clone t =
  let out = zeros t.shape in
  iteri t (fun index v -> set out index v);
  out

let contiguous t = if is_contiguous t then t else clone t
let reshape t shape = reshape_view (contiguous t) shape

(* Concat along one axis — the serving layer's batched scatter.  It
   moves whole contiguous [dim..last] runs with [Array.blit] per leading
   prefix, so batching B requests costs one memcpy per prefix block, not
   one strided store per element. *)

let extent_product shape lo hi =
  let p = ref 1 in
  for i = lo to hi do
    p := !p * shape.(i)
  done;
  !p

let concat_shape ~dim = function
  | [] -> invalid_arg "Tensor.concat_axis: empty list"
  | first :: _ as parts ->
      let nd = ndim first in
      let dim = Shape.normalize_dim ~ndim:nd dim in
      List.iter
        (fun p ->
          if ndim p <> nd then invalid_arg "Tensor.concat_axis: rank mismatch";
          Array.iteri
            (fun i s ->
              if i <> dim && s <> p.shape.(i) then
                invalid_arg
                  "Tensor.concat_axis: shapes differ off the concat axis")
            first.shape)
        parts;
      let out_shape = Array.copy first.shape in
      out_shape.(dim) <- List.fold_left (fun acc p -> acc + p.shape.(dim)) 0 parts;
      (dim, out_shape)

let concat_axis_into ~dim parts out =
  let dim, out_shape = concat_shape ~dim parts in
  if not (Shape.equal out.shape out_shape && is_contiguous out) then
    invalid_arg
      (Printf.sprintf
         "Tensor.concat_axis_into: destination %s, parts concatenate to %s"
         (Shape.to_string out.shape) (Shape.to_string out_shape));
  let nd = Array.length out_shape and total = out_shape.(dim) in
  let prefix = extent_product out_shape 0 (dim - 1) in
  let suffix = extent_product out_shape (dim + 1) (nd - 1) in
  let dst = Storage.data out.storage in
  let off = ref 0 in
  List.iter
    (fun p ->
      let p = contiguous p in
      let src = Storage.data p.storage in
      let run = p.shape.(dim) * suffix in
      for pre = 0 to prefix - 1 do
        Array.blit src
          (p.offset + (pre * run))
          dst
          (out.offset + (((pre * total) + !off) * suffix))
          run
      done;
      off := !off + p.shape.(dim))
    parts

let concat_axis ~dim parts =
  let _, out_shape = concat_shape ~dim parts in
  let out = uninit out_shape in
  concat_axis_into ~dim parts out;
  out

let pp ppf t =
  let rec render ppf prefix =
    let d = Array.length prefix in
    if d = ndim t then Format.fprintf ppf "%.4g" (get t prefix)
    else begin
      Format.fprintf ppf "[";
      for i = 0 to t.shape.(d) - 1 do
        if i > 0 then Format.fprintf ppf ", ";
        render ppf (Array.append prefix [| i |])
      done;
      Format.fprintf ppf "]"
    end
  in
  render ppf [||]

let to_string t = Format.asprintf "%a" pp t
