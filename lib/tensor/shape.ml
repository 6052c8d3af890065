type t = int array

let numel shape = Array.fold_left ( * ) 1 shape

let row_major_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let equal a b = a = b

let to_string shape =
  let dims = Array.to_list shape |> List.map string_of_int in
  "[" ^ String.concat ", " dims ^ "]"

let pp ppf shape = Format.pp_print_string ppf (to_string shape)

let broadcastable a b =
  let na = Array.length a and nb = Array.length b in
  let n = max na nb in
  let ok = ref true in
  for i = 0 to n - 1 do
    let da = if i < n - na then 1 else a.(i - (n - na)) in
    let db = if i < n - nb then 1 else b.(i - (n - nb)) in
    if da <> db && da <> 1 && db <> 1 then ok := false
  done;
  !ok

let broadcast a b =
  let na = Array.length a and nb = Array.length b in
  let n = max na nb in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    let da = if i < n - na then 1 else a.(i - (n - na)) in
    let db = if i < n - nb then 1 else b.(i - (n - nb)) in
    if da = db then out.(i) <- da
    else if da = 1 then out.(i) <- db
    else if db = 1 then out.(i) <- da
    else
      invalid_arg
        (Printf.sprintf "Shape.broadcast: incompatible shapes %s and %s"
           (to_string a) (to_string b))
  done;
  out

let normalize_dim ~ndim dim =
  let d = if dim < 0 then dim + ndim else dim in
  if d < 0 || d >= ndim then
    invalid_arg
      (Printf.sprintf "dimension %d out of range for %d-d tensor" dim ndim)
  else d

let normalize_index ~size idx =
  let i = if idx < 0 then idx + size else idx in
  if i < 0 || i >= size then
    invalid_arg
      (Printf.sprintf "index %d out of range for dimension of size %d" idx size)
  else i

let iter_indices shape f =
  let n = Array.length shape in
  if numel shape = 0 then ()
  else begin
    let index = Array.make n 0 in
    let continue = ref true in
    while !continue do
      f index;
      (* Odometer increment in row-major order. *)
      let rec bump d =
        if d < 0 then continue := false
        else begin
          index.(d) <- index.(d) + 1;
          if index.(d) >= shape.(d) then begin
            index.(d) <- 0;
            bump (d - 1)
          end
        end
      in
      bump (n - 1)
    done
  end
