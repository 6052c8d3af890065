(* Direct-storage kernels for the executor's per-node path.

   The interpreter's Ops are the semantic reference and stay naive: every
   element goes through an index array and a strided linear-index
   computation.  The executor replaces the hot operators with loops over
   the raw storage arrays — broadcast strides are resolved once per call,
   the innermost dimension runs as a tight for-loop — and falls back to
   the interpreter for everything else.  Accumulation orders match the
   reference exactly, so outputs are bitwise identical. *)

open Functs_ir
open Functs_tensor
open Functs_interp

let data (t : Tensor.t) = Storage.data t.Tensor.storage

(* --- intra-kernel data parallelism ---

   Large kernels chunk their outermost independent dimension across the
   engine's persistent domain pool.  Every parallelized operator writes
   each output element from exactly one chunk and accumulates per element
   in the reference order, so results stay bitwise identical to
   sequential execution.  [set_parallel] is (re)bound by every
   [Scheduler.run]; a session shard running another engine may rebind it
   mid-run, which changes only which pool chunks a kernel, never the
   result.  A dispatch that finds the pool busy runs sequentially. *)

let par_pool : Pool.t option ref = ref None
let par_grain = ref 8192

let set_parallel pool ~grain =
  par_pool := pool;
  par_grain := max 1 grain

(* Chunk [n] outer iterations covering [total] elements: parallel only
   when at least two grains of elements exist, with the grain converted
   to outer-iteration units so each chunk stays above it.
   [bytes_per_iter] (traffic per outer iteration) feeds the pool's
   cache-aware task sizing. *)
let pchunk ?(bytes_per_iter = 0) ~total n body =
  match !par_pool with
  | Some p when total >= 2 * !par_grain && n >= 2 ->
      ignore
        (Pool.parallel_for p ~bytes_per_iter
           ~grain:(max 1 (!par_grain / max 1 (total / n)))
           ~n body)
  | _ -> body 0 n

(* --- the strided engine ---

   Every elementwise op with C code — unary, binary, where, copy and
   fill — runs through one planner and one set of native leaf loops
   (gemm_stubs.c), whatever the operands' layouts.  The planner
   - drops unit dims (their strides are never used);
   - orders the rest by the destination's strides, largest outermost,
     so the innermost loop walks the destination's memory in order;
   - merges adjacent dims that every operand steps across uniformly.
   What is left is [rows x n] with an (element step, row stride) pair
   per operand, destination included; any dims beyond those two are
   looped here around one native call each.  Each output element is
   the same function of the same input elements in any iteration
   order, so reordering is bitwise-exact.  Even a destination that
   broadcasts (a zero stride) ends up as in the reference: every loop
   counts upwards, so in any nesting the last write to a cell is the
   one at the highest index of each zero-stride dim. *)

(* Strides of [t] aligned to an [out_nd]-dim broadcast result: missing
   leading dimensions and size-1 dimensions step 0. *)
let bstrides (t : Tensor.t) out_nd =
  let n = Tensor.ndim t in
  Array.init out_nd (fun i ->
      let j = i - (out_nd - n) in
      if j < 0 then 0
      else if t.Tensor.shape.(j) = 1 then 0
      else t.Tensor.strides.(j))

type nest = {
  outer : int array;  (* extents looped in OCaml, outermost first *)
  ostr : int array array;  (* per outer dim: each operand's stride *)
  rows : int;
  n : int;
  rstr : int array;  (* per operand: row stride *)
  step : int array;  (* per operand: element step *)
}

(* [strides.(0)] is the destination's.  Arrays, not lists: this runs on
   every elementwise op, and small ops are common. *)
let plan shape (strides : int array array) =
  let nops = Array.length strides in
  let dst = strides.(0) in
  (* non-unit dims by descending destination stride (a stable insertion
     sort: ranks are small) *)
  let dims = Array.make (Array.length shape) 0 and m = ref 0 in
  Array.iteri
    (fun d extent ->
      if extent > 1 then begin
        let j = ref !m in
        while !j > 0 && abs dst.(dims.(!j - 1)) < abs dst.(d) do
          dims.(!j) <- dims.(!j - 1);
          decr j
        done;
        dims.(!j) <- d;
        incr m
      end)
    shape;
  (* merged dims, outermost first: extent [ext.(c)], per-operand stride
     [str.(k).(c)] *)
  let ext = Array.make !m 1 in
  let str = Array.init nops (fun _ -> Array.make !m 0) in
  let q = ref 0 in
  for i = 0 to !m - 1 do
    let d = dims.(i) in
    let merge = ref (!q > 0) in
    for k = 0 to nops - 1 do
      if !merge && str.(k).(!q - 1) <> strides.(k).(d) * shape.(d) then
        merge := false
    done;
    if !merge then ext.(!q - 1) <- ext.(!q - 1) * shape.(d)
    else begin
      ext.(!q) <- shape.(d);
      incr q
    end;
    for k = 0 to nops - 1 do
      str.(k).(!q - 1) <- strides.(k).(d)
    done
  done;
  let q = !q in
  let col c = Array.init nops (fun k -> if c < 0 then 0 else str.(k).(c)) in
  let no = max 0 (q - 2) in
  {
    outer = Array.sub ext 0 no;
    ostr = Array.init no col;
    rows = (if q >= 2 then ext.(q - 2) else 1);
    n = (if q >= 1 then ext.(q - 1) else 1);
    rstr = col (q - 2);
    step = col (q - 1);
  }

let shifted o i str = Array.mapi (fun k ok -> ok + (i * str.(k))) o

(* Run [leaf offsets rows n] over the nest from the operands' base
   offsets, chunking the outermost loop across the pool when the op is
   large.  [bytes] is the traffic per element, for the pool's sizing. *)
let iterate ~bytes nest (offs : int array) leaf =
  let no = Array.length nest.outer in
  let total = Array.fold_left ( * ) (nest.rows * nest.n) nest.outer in
  if no = 0 then
    match !par_pool with
    | Some _ when total >= 2 * !par_grain ->
        if nest.rows = 1 then
          pchunk ~bytes_per_iter:bytes ~total nest.n (fun lo hi ->
              leaf (shifted offs lo nest.step) 1 (hi - lo))
        else
          pchunk ~bytes_per_iter:(bytes * nest.n) ~total nest.rows
            (fun lo hi -> leaf (shifted offs lo nest.rstr) (hi - lo) nest.n)
    | _ -> leaf offs nest.rows nest.n
  else
    let rec go d o =
      if d = no then leaf o nest.rows nest.n
      else
        for i = 0 to nest.outer.(d) - 1 do
          go (d + 1) (shifted o i nest.ostr.(d))
        done
    in
    pchunk
      ~bytes_per_iter:(bytes * (total / nest.outer.(0)))
      ~total nest.outer.(0)
      (fun lo hi ->
        for i = lo to hi - 1 do
          go 1 (shifted offs i nest.ostr.(0))
        done)

(* The single step with which [t], broadcast to [shape], walks [shape]
   in row-major order: 1 when contiguous, 0 when it repeats one element,
   -1 otherwise. *)
let flat_step (t : Tensor.t) shape =
  let nd = Array.length shape and tn = Tensor.ndim t in
  let contig = ref true and all0 = ref true and expect = ref 1 in
  for i = nd - 1 downto 0 do
    let j = i - (nd - tn) in
    let s = if j < 0 || t.Tensor.shape.(j) = 1 then 0 else t.Tensor.strides.(j) in
    if shape.(i) > 1 then begin
      if s <> 0 then all0 := false;
      if s <> !expect then contig := false
    end;
    expect := !expect * shape.(i)
  done;
  if !contig then 1 else if !all0 then 0 else -1

(* Plan and run [make_leaf nest] writing [dst] from [srcs], which must
   broadcast to [dst]'s shape.  The common all-flat case (contiguous
   destination, contiguous or one-element sources) skips the planner. *)
let strided (dst : Tensor.t) (srcs : Tensor.t array) make_leaf =
  let shape = dst.Tensor.shape in
  let total = Shape.numel shape in
  if total > 0 then begin
    let ops = Array.append [| dst |] srcs in
    let nops = Array.length ops in
    let steps = Array.map (fun t -> flat_step t shape) ops in
    let nest =
      if steps.(0) = 1 && Array.for_all (fun s -> s >= 0) steps then
        let zeros = Array.make nops 0 in
        { outer = [||]; ostr = [||]; rows = 1; n = total; rstr = zeros; step = steps }
      else plan shape (Array.map (fun t -> bstrides t (Array.length shape)) ops)
    in
    iterate ~bytes:(8 * nops) nest
      (Array.map (fun (t : Tensor.t) -> t.Tensor.offset) ops)
      (make_leaf nest)
  end

(* Native leaf loops.  Arguments per operand: array, offset, element
   step, row stride; the destination comes last, then rows and n. *)
external unary_map :
  int ->
  float array ->
  int ->
  int ->
  int ->
  float array ->
  int ->
  int ->
  int ->
  int ->
  int ->
  unit = "functs_unary_map_bytecode" "functs_unary_map"
[@@noalloc]

external binary_map :
  int ->
  float array ->
  int ->
  int ->
  int ->
  float array ->
  int ->
  int ->
  int ->
  float array ->
  int ->
  int ->
  int ->
  int ->
  int ->
  unit = "functs_binary_map_bytecode" "functs_binary_map"
[@@noalloc]

external where_map :
  float array ->
  int ->
  int ->
  int ->
  float array ->
  int ->
  int ->
  int ->
  float array ->
  int ->
  int ->
  int ->
  float array ->
  int ->
  int ->
  int ->
  int ->
  int ->
  unit = "functs_where_map_bytecode" "functs_where_map"
[@@noalloc]

let unary_code : Scalar.unary -> int = function
  | Scalar.Neg -> 0
  | Scalar.Abs -> 1
  | Scalar.Exp -> 2
  | Scalar.Log -> 3
  | Scalar.Sqrt -> 4
  | Scalar.Sigmoid -> 5
  | Scalar.Tanh -> 6
  | Scalar.Relu -> 7

let copy_code = 8

let binary_code : Scalar.binary -> int option = function
  | Scalar.Add -> Some 0
  | Scalar.Sub -> Some 1
  | Scalar.Mul -> Some 2
  | Scalar.Div -> Some 3
  | Scalar.Pow -> Some 4
  | Scalar.Lt -> Some 5
  | Scalar.Gt -> Some 6
  | Scalar.Max | Scalar.Min | Scalar.Eq -> None

let unary_leaf code (dst : Tensor.t) (a : Tensor.t) nest o rows n =
  unary_map code (data a) o.(1) nest.step.(1) nest.rstr.(1) (data dst) o.(0)
    nest.step.(0) nest.rstr.(0) rows n

(* Binary ops without C code keep an OCaml closure per element. *)
let binary_leaf fn (dst : Tensor.t) (a : Tensor.t) (b : Tensor.t) nest =
  let od = data dst and ad = data a and bd = data b in
  let st = nest.step and rs = nest.rstr in
  match binary_code fn with
  | Some code ->
      fun o rows n ->
        binary_map code ad o.(1) st.(1) rs.(1) bd o.(2) st.(2) rs.(2) od o.(0)
          st.(0) rs.(0) rows n
  | None ->
      (* Max and Min are spelled out: a direct call is much cheaper
         than the closure's *)
      let f = Scalar.apply_binary fn in
      let so = st.(0) and sa = st.(1) and sb = st.(2) in
      fun o rows n ->
        for r = 0 to rows - 1 do
          let po = ref (o.(0) + (r * rs.(0))) in
          let pa = ref (o.(1) + (r * rs.(1))) in
          let pb = ref (o.(2) + (r * rs.(2))) in
          for _ = 1 to n do
            let x = ad.(!pa) and y = bd.(!pb) in
            od.(!po) <-
              (match fn with
              | Scalar.Max -> Float.max x y
              | Scalar.Min -> Float.min x y
              | _ -> f x y);
            po := !po + so;
            pa := !pa + sa;
            pb := !pb + sb
          done
        done

(* --- the operators --- *)

(* Output allocation: the scheduler's per-node path passes the engine's
   storage pool via [?alloc] so intermediates recycle instead of hitting
   the major heap on every node.  Every operator below overwrites the
   whole output, so the pool's unspecified contents never leak into
   results.  Without an allocator (worker-domain bodies, external
   callers) outputs are plain zero-filled tensors, as before. *)
let fresh alloc shape =
  match alloc with Some a -> a shape | None -> Tensor.zeros shape

(* The [_into] forms write through a caller-supplied destination whose
   shape is the op's broadcast result shape; it must not share storage
   with an operand unless it is exactly that operand's view. *)
let unary_into dst fn a = strided dst [| a |] (unary_leaf (unary_code fn) dst a)
let binary_into dst fn a b = strided dst [| a; b |] (binary_leaf fn dst a b)

let where_into dst c a b =
  strided dst [| c; a; b |] (fun nest o rows n ->
      let st = nest.step and rs = nest.rstr in
      where_map (data c) o.(1) st.(1) rs.(1) (data a) o.(2) st.(2) rs.(2)
        (data b) o.(3) st.(3) rs.(3) (data dst) o.(0) st.(0) rs.(0) rows n)

let clone ?alloc t =
  let out = fresh alloc (Tensor.shape t) in
  strided out [| t |] (unary_leaf copy_code out t);
  out

let contig t = if Tensor.is_contiguous t then t else clone t

(* dst <- src, broadcasting [src] (0-d sources are fills).  Overlapping
   storages and shape errors defer to the snapshotting reference. *)
let copy_into (dst : Tensor.t) (src : Tensor.t) =
  if
    Tensor.ndim src <= Tensor.ndim dst
    && Shape.broadcastable (Tensor.shape src) (Tensor.shape dst)
    && Shape.equal (Shape.broadcast (Tensor.shape src) (Tensor.shape dst))
         (Tensor.shape dst)
    && not (Tensor.same_storage dst src)
  then strided dst [| src |] (unary_leaf copy_code dst src)
  else ignore (Inplace.copy_ dst src)

(* 0-d operands short-circuit the broadcast/stride machinery entirely:
   overhead-bound workloads (nms) compute on scalar tensors almost
   exclusively. *)
let scalar0 (t : Tensor.t) = (data t).(t.Tensor.offset)

let unary ?alloc fn a =
  if Tensor.ndim a = 0 then Tensor.scalar (Scalar.apply_unary fn (scalar0 a))
  else begin
    let out = fresh alloc (Tensor.shape a) in
    unary_into out fn a;
    out
  end

let binary ?alloc fn a b =
  if Tensor.ndim a = 0 && Tensor.ndim b = 0 then
    Tensor.scalar (Scalar.apply_binary fn (scalar0 a) (scalar0 b))
  else begin
    let out = fresh alloc (Shape.broadcast (Tensor.shape a) (Tensor.shape b)) in
    binary_into out fn a b;
    out
  end

let where ?alloc c a b =
  if Tensor.ndim c = 0 && Tensor.ndim a = 0 && Tensor.ndim b = 0 then
    Tensor.scalar (if scalar0 c <> 0.0 then scalar0 a else scalar0 b)
  else begin
    let shape =
      Shape.broadcast
        (Shape.broadcast (Tensor.shape c) (Tensor.shape a))
        (Tensor.shape b)
    in
    let out = fresh alloc shape in
    where_into out c a b;
    out
  end

(* Native row-block GEMM (gemm_stubs.c): i-l-j loop order, so each
   output element accumulates its k terms in reference order — bitwise
   identical to the interpreter — while the unit-stride j loop
   vectorizes. *)
external gemm_rows :
  float array ->
  int ->
  float array ->
  int ->
  float array ->
  int ->
  int ->
  int ->
  int ->
  unit = "functs_gemm_bytecode" "functs_gemm"
[@@noalloc]

(* 2-d matmul into a contiguous destination view; [a] and [b] must be
   contiguous.  The l-loop accumulates per output element in the same
   order as the reference, so results are bitwise identical. *)
let matmul2d_into (dst : Tensor.t) (a : Tensor.t) (b : Tensor.t) =
  let m = a.Tensor.shape.(0) and k = a.Tensor.shape.(1) in
  let k' = b.Tensor.shape.(0) and n = b.Tensor.shape.(1) in
  if k <> k' then
    invalid_arg
      (Printf.sprintf "Ops.matmul: inner dimensions %d and %d differ" k k');
  let ad = data a and bd = data b and od = data dst in
  let ao = a.Tensor.offset and bo = b.Tensor.offset and oo = dst.Tensor.offset in
  (* Row blocks are independent and each output element accumulates over
     l in reference order, so chunking rows is bitwise-exact. *)
  (* per row: a row of [a], a row of the output, and [b] streamed once
     (amortized across rows, so only the k + n unique floats count) *)
  pchunk ~bytes_per_iter:(8 * (k + n)) ~total:(m * n * k) m (fun row_lo row_hi ->
      gemm_rows ad
        (ao + (row_lo * k))
        bd bo od
        (oo + (row_lo * n))
        (row_hi - row_lo) k n)

let matmul2d ?alloc a b =
  let a = contig a and b = contig b in
  let out = fresh alloc [| a.Tensor.shape.(0); b.Tensor.shape.(1) |] in
  matmul2d_into out a b;
  out

let matmul ?alloc a b =
  match (Tensor.ndim a, Tensor.ndim b) with
  | 2, 2 -> matmul2d ?alloc a b
  | 3, 2 ->
      let a = contig a and b = contig b in
      let batch = a.Tensor.shape.(0) in
      let m = a.Tensor.shape.(1) and n = b.Tensor.shape.(1) in
      let out = fresh alloc [| batch; m; n |] in
      for i = 0 to batch - 1 do
        matmul2d_into (Tensor.select out ~dim:0 i) (Tensor.select a ~dim:0 i) b
      done;
      out
  | 3, 3 ->
      let ba = a.Tensor.shape.(0) and bb = b.Tensor.shape.(0) in
      if ba <> bb && ba <> 1 && bb <> 1 then
        invalid_arg "Ops.matmul: batch dimensions incompatible";
      let a = contig a and b = contig b in
      let batch = max ba bb in
      let m = a.Tensor.shape.(1) and n = b.Tensor.shape.(2) in
      let out = fresh alloc [| batch; m; n |] in
      for i = 0 to batch - 1 do
        matmul2d_into
          (Tensor.select out ~dim:0 i)
          (Tensor.select a ~dim:0 (if ba = 1 then 0 else i))
          (Tensor.select b ~dim:0 (if bb = 1 then 0 else i))
      done;
      out
  | 1, 2 -> Tensor.select (matmul2d ?alloc (Tensor.unsqueeze a ~dim:0) b) ~dim:0 0
  | 2, 1 -> Tensor.select (matmul2d ?alloc a (Tensor.unsqueeze b ~dim:1)) ~dim:1 0
  | _ -> Ops.matmul a b

(* Lane-wise softmax over the innermost dimension of a contiguous tensor;
   the max / exp-sum / divide sequence matches the reference op-for-op. *)
let softmax ?alloc t ~dim =
  let nd = Tensor.ndim t in
  let dim = Shape.normalize_dim ~ndim:nd dim in
  if nd = 0 || dim <> nd - 1 || not (Tensor.is_contiguous t) then
    Ops.softmax t ~dim
  else begin
    let ext = t.Tensor.shape.(dim) in
    let out = fresh alloc (Tensor.shape t) in
    let td = data t and od = data out in
    let lanes = if ext = 0 then 0 else Tensor.numel t / ext in
    (* Each lane's max / exp-sum / divide is self-contained: chunking the
       outer (lane) dimension preserves the reference order exactly. *)
    pchunk ~bytes_per_iter:(16 * ext) ~total:(lanes * ext) lanes
      (fun lane_lo lane_hi ->
        for lane = lane_lo to lane_hi - 1 do
          let base = t.Tensor.offset + (lane * ext) and ob = lane * ext in
          let m = ref Float.neg_infinity in
          for j = 0 to ext - 1 do
            m := Float.max !m td.(base + j)
          done;
          let s = ref 0.0 in
          for j = 0 to ext - 1 do
            let e = Stdlib.exp (td.(base + j) -. !m) in
            od.(ob + j) <- e;
            s := !s +. e
          done;
          for j = 0 to ext - 1 do
            od.(ob + j) <- od.(ob + j) /. !s
          done
        done);
    out
  end

let reduce_last ?alloc t ~keepdim ~init ~f =
  let nd = Tensor.ndim t in
  let ext = t.Tensor.shape.(nd - 1) in
  let out_shape = Array.init nd (fun i -> if i = nd - 1 then 1 else t.Tensor.shape.(i)) in
  let out = fresh alloc out_shape in
  let td = data t and od = data out in
  let lanes = if ext = 0 then 0 else Tensor.numel t / ext in
  (* One output element per lane, accumulated in reference order. *)
  pchunk ~bytes_per_iter:(8 * ext) ~total:(lanes * ext) lanes
    (fun lane_lo lane_hi ->
      for lane = lane_lo to lane_hi - 1 do
        let base = t.Tensor.offset + (lane * ext) in
        let acc = ref init in
        for j = 0 to ext - 1 do
          acc := f !acc td.(base + j)
        done;
        od.(lane) <- !acc
      done);
  if keepdim then out else Tensor.squeeze out ~dim:(nd - 1)

let reduce_dim ?alloc t ~dim ~keepdim ~init ~f ~fallback =
  let nd = Tensor.ndim t in
  if nd = 0 then fallback t ~dim ~keepdim
  else
    let d = Shape.normalize_dim ~ndim:nd dim in
    if d = nd - 1 && Tensor.is_contiguous t then
      reduce_last ?alloc t ~keepdim ~init ~f
    else fallback t ~dim ~keepdim

let sum_dim ?alloc t ~dim ~keepdim =
  reduce_dim ?alloc t ~dim ~keepdim ~init:0.0 ~f:( +. ) ~fallback:Ops.sum_dim

let max_dim ?alloc t ~dim ~keepdim =
  reduce_dim ?alloc t ~dim ~keepdim ~init:Float.neg_infinity ~f:Float.max
    ~fallback:Ops.max_dim

let sum t =
  let acc = ref 0.0 in
  if Tensor.is_contiguous t then begin
    let td = data t and n = Tensor.numel t in
    for i = 0 to n - 1 do
      acc := !acc +. td.(t.Tensor.offset + i)
    done
  end
  else Tensor.iteri t (fun _ v -> acc := !acc +. v);
  Tensor.scalar !acc

(* Scalar-like operands (0-d tensors and Int/Float/Bool constants) skip
   [Value.to_tensor] promotion — the promoted 0-d tensor would be read back
   out one instruction later.  [is_scal]/[scal_val] split the test from the
   read so the fast arms allocate nothing but the result. *)
let is_scal = function
  | Value.Tensor t -> Tensor.ndim t = 0
  | Value.List _ -> false
  | Value.Int _ | Value.Float _ | Value.Bool _ -> true

let scal_val = function
  | Value.Tensor t -> scalar0 t
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | Value.Bool b -> if b then 1.0 else 0.0
  | Value.List _ -> invalid_arg "Fastops.scal_val: list value"

let apply_op ?alloc (node : Graph.node) (inputs : Value.t list) =
  let tin i = Value.to_tensor (List.nth inputs i) in
  match node.n_op with
  | Op.Unary fn -> (
      match inputs with
      | [ a ] when is_scal a ->
          [ Value.Tensor (Tensor.scalar (Scalar.apply_unary fn (scal_val a))) ]
      | _ -> [ Value.Tensor (unary ?alloc fn (tin 0)) ])
  | Op.Binary fn -> (
      match inputs with
      | [ a; b ] when is_scal a && is_scal b ->
          [
            Value.Tensor
              (Tensor.scalar (Scalar.apply_binary fn (scal_val a) (scal_val b)));
          ]
      | _ -> [ Value.Tensor (binary ?alloc fn (tin 0) (tin 1)) ])
  | Op.Matmul -> [ Value.Tensor (matmul ?alloc (tin 0) (tin 1)) ]
  | Op.Softmax { dim } -> [ Value.Tensor (softmax ?alloc (tin 0) ~dim) ]
  | Op.Sum_dim { dim; keepdim } ->
      [ Value.Tensor (sum_dim ?alloc (tin 0) ~dim ~keepdim) ]
  | Op.Max_dim { dim; keepdim } ->
      [ Value.Tensor (max_dim ?alloc (tin 0) ~dim ~keepdim) ]
  | Op.Sum -> [ Value.Tensor (sum (tin 0)) ]
  | Op.Where -> (
      match inputs with
      | [ c; a; b ] when is_scal c && is_scal a && is_scal b ->
          [
            Value.Tensor
              (Tensor.scalar
                 (if scal_val c <> 0.0 then scal_val a else scal_val b));
          ]
      | _ -> [ Value.Tensor (where ?alloc (tin 0) (tin 1) (tin 2)) ])
  | Op.Clone -> [ Value.Tensor (clone ?alloc (tin 0)) ]
  | _ -> Eval.apply_op node inputs
