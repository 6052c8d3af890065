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

(* --- view-dimension collapsing ---

   A suffix of dimensions over which an operand steps row-major
   contiguously (or not at all, for broadcast operands) is a single flat
   run: collapsing it to one extent turns the whole elementwise loop
   into a 1-d iteration the pool can chunk finely — a [3; 100000] view
   splits into cache-sized tasks instead of three monolithic rows. *)

(* Flat step of [strides] over the suffix [d .. nd-1] of [shape]:
   [Some 1] when the suffix is contiguous, [Some 0] when it is fully
   broadcast, [None] otherwise.  Size-1 dims are wildcards (their stride
   is never used). *)
let suffix_step strides (shape : int array) d =
  let nd = Array.length shape in
  let all0 = ref true and contig = ref true in
  let expect = ref 1 in
  for k = nd - 1 downto d do
    if shape.(k) > 1 then begin
      if strides.(k) <> 0 then all0 := false;
      if strides.(k) <> !expect then contig := false
    end;
    expect := !expect * shape.(k)
  done;
  if !contig then Some 1 else if !all0 then Some 0 else None

(* Smallest [d] such that the suffix [d .. nd-1] is flat for the output
   (which must step, so broadcast does not qualify) and every input.
   [nd] when not even the innermost dimension collapses. *)
let collapse_cut so inputs shape =
  let nd = Array.length shape in
  let flat_at d =
    (match suffix_step so shape d with Some 1 -> true | _ -> false)
    && List.for_all (fun s -> suffix_step s shape d <> None) inputs
  in
  let d = ref 0 in
  while !d < nd && not (flat_at !d) do
    incr d
  done;
  !d

let flat_step strides shape d =
  match suffix_step strides shape d with Some s -> s | None -> assert false

(* Strides of [t] aligned to an [out_nd]-dim broadcast result: missing
   leading dimensions and size-1 dimensions read index 0. *)
let bstrides (t : Tensor.t) out_nd =
  let n = Tensor.ndim t in
  Array.init out_nd (fun i ->
      let j = i - (out_nd - n) in
      if j < 0 then 0
      else if t.Tensor.shape.(j) = 1 then 0
      else t.Tensor.strides.(j))

(* --- elementwise engines: contiguous output, strided broadcast inputs --- *)

let elementwise1 f (out : Tensor.t) (a : Tensor.t) =
  let shape = out.Tensor.shape in
  let nd = Array.length shape in
  let od = data out and ad = data a in
  if nd = 0 then od.(out.Tensor.offset) <- f ad.(a.Tensor.offset)
  else begin
    let sa = bstrides a nd in
    let so = out.Tensor.strides in
    let rec go d pa po =
      if d = nd - 1 then begin
        let n = shape.(d) and ka = sa.(d) and ko = so.(d) in
        let pa = ref pa and po = ref po in
        for _ = 0 to n - 1 do
          od.(!po) <- f ad.(!pa);
          pa := !pa + ka;
          po := !po + ko
        done
      end
      else
        for i = 0 to shape.(d) - 1 do
          go (d + 1) (pa + (i * sa.(d))) (po + (i * so.(d)))
        done
    in
    let total = Shape.numel shape in
    if total > 0 then begin
      let dcut = collapse_cut so [ sa ] shape in
      if dcut = 0 then
        (* fully flat: chunk over elements, not rows *)
        let ka = flat_step sa shape 0 in
        pchunk ~bytes_per_iter:16 ~total total (fun lo hi ->
            let pa = ref (a.Tensor.offset + (lo * ka)) in
            let po = ref (out.Tensor.offset + lo) in
            for _ = lo to hi - 1 do
              od.(!po) <- f ad.(!pa);
              pa := !pa + ka;
              po := !po + 1
            done)
      else if dcut < nd then begin
        (* strided outer dims over a flat suffix *)
        let ext = Shape.numel (Array.sub shape dcut (nd - dcut)) in
        let ka = flat_step sa shape dcut in
        let rec goc d pa po =
          if d = dcut then begin
            let pa = ref pa and po = ref po in
            for _ = 0 to ext - 1 do
              od.(!po) <- f ad.(!pa);
              pa := !pa + ka;
              po := !po + 1
            done
          end
          else
            for i = 0 to shape.(d) - 1 do
              goc (d + 1) (pa + (i * sa.(d))) (po + (i * so.(d)))
            done
        in
        pchunk ~bytes_per_iter:(16 * (total / shape.(0))) ~total shape.(0)
          (fun lo hi ->
            for i = lo to hi - 1 do
              goc 1 (a.Tensor.offset + (i * sa.(0))) (out.Tensor.offset + (i * so.(0)))
            done)
      end
      else if nd = 1 then
        let ka = sa.(0) and ko = so.(0) in
        pchunk ~total shape.(0) (fun lo hi ->
            let pa = ref (a.Tensor.offset + (lo * ka)) in
            let po = ref (out.Tensor.offset + (lo * ko)) in
            for _ = lo to hi - 1 do
              od.(!po) <- f ad.(!pa);
              pa := !pa + ka;
              po := !po + ko
            done)
      else
        pchunk ~total shape.(0) (fun lo hi ->
            for i = lo to hi - 1 do
              go 1 (a.Tensor.offset + (i * sa.(0))) (out.Tensor.offset + (i * so.(0)))
            done)
    end
  end

let elementwise2 f (out : Tensor.t) (a : Tensor.t) (b : Tensor.t) =
  let shape = out.Tensor.shape in
  let nd = Array.length shape in
  let od = data out and ad = data a and bd = data b in
  if nd = 0 then od.(out.Tensor.offset) <- f ad.(a.Tensor.offset) bd.(b.Tensor.offset)
  else begin
    let sa = bstrides a nd and sb = bstrides b nd in
    let so = out.Tensor.strides in
    let rec go d pa pb po =
      if d = nd - 1 then begin
        let n = shape.(d) and ka = sa.(d) and kb = sb.(d) and ko = so.(d) in
        let pa = ref pa and pb = ref pb and po = ref po in
        for _ = 0 to n - 1 do
          od.(!po) <- f ad.(!pa) bd.(!pb);
          pa := !pa + ka;
          pb := !pb + kb;
          po := !po + ko
        done
      end
      else
        for i = 0 to shape.(d) - 1 do
          go (d + 1) (pa + (i * sa.(d))) (pb + (i * sb.(d))) (po + (i * so.(d)))
        done
    in
    let total = Shape.numel shape in
    if total > 0 then begin
      let dcut = collapse_cut so [ sa; sb ] shape in
      if dcut = 0 then
        (* fully flat: chunk over elements, not rows *)
        let ka = flat_step sa shape 0 and kb = flat_step sb shape 0 in
        pchunk ~bytes_per_iter:24 ~total total (fun lo hi ->
            let pa = ref (a.Tensor.offset + (lo * ka)) in
            let pb = ref (b.Tensor.offset + (lo * kb)) in
            let po = ref (out.Tensor.offset + lo) in
            for _ = lo to hi - 1 do
              od.(!po) <- f ad.(!pa) bd.(!pb);
              pa := !pa + ka;
              pb := !pb + kb;
              po := !po + 1
            done)
      else if dcut < nd then begin
        (* strided outer dims over a flat suffix *)
        let ext = Shape.numel (Array.sub shape dcut (nd - dcut)) in
        let ka = flat_step sa shape dcut and kb = flat_step sb shape dcut in
        let rec goc d pa pb po =
          if d = dcut then begin
            let pa = ref pa and pb = ref pb and po = ref po in
            for _ = 0 to ext - 1 do
              od.(!po) <- f ad.(!pa) bd.(!pb);
              pa := !pa + ka;
              pb := !pb + kb;
              po := !po + 1
            done
          end
          else
            for i = 0 to shape.(d) - 1 do
              goc (d + 1) (pa + (i * sa.(d))) (pb + (i * sb.(d))) (po + (i * so.(d)))
            done
        in
        pchunk ~bytes_per_iter:(24 * (total / shape.(0))) ~total shape.(0)
          (fun lo hi ->
            for i = lo to hi - 1 do
              goc 1
                (a.Tensor.offset + (i * sa.(0)))
                (b.Tensor.offset + (i * sb.(0)))
                (out.Tensor.offset + (i * so.(0)))
            done)
      end
      else if nd = 1 then
        let ka = sa.(0) and kb = sb.(0) and ko = so.(0) in
        pchunk ~total shape.(0) (fun lo hi ->
            let pa = ref (a.Tensor.offset + (lo * ka)) in
            let pb = ref (b.Tensor.offset + (lo * kb)) in
            let po = ref (out.Tensor.offset + (lo * ko)) in
            for _ = lo to hi - 1 do
              od.(!po) <- f ad.(!pa) bd.(!pb);
              pa := !pa + ka;
              pb := !pb + kb;
              po := !po + ko
            done)
      else
        pchunk ~total shape.(0) (fun lo hi ->
            for i = lo to hi - 1 do
              go 1
                (a.Tensor.offset + (i * sa.(0)))
                (b.Tensor.offset + (i * sb.(0)))
                (out.Tensor.offset + (i * so.(0)))
            done)
    end
  end

let elementwise3 f (out : Tensor.t) (a : Tensor.t) (b : Tensor.t) (c : Tensor.t) =
  let shape = out.Tensor.shape in
  let nd = Array.length shape in
  let od = data out and ad = data a and bd = data b and cd = data c in
  if nd = 0 then
    od.(out.Tensor.offset) <-
      f ad.(a.Tensor.offset) bd.(b.Tensor.offset) cd.(c.Tensor.offset)
  else begin
    let sa = bstrides a nd and sb = bstrides b nd and sc = bstrides c nd in
    let so = out.Tensor.strides in
    let rec go d pa pb pc po =
      if d = nd - 1 then begin
        let n = shape.(d) and ka = sa.(d) and kb = sb.(d) and kc = sc.(d) in
        let ko = so.(d) in
        let pa = ref pa and pb = ref pb and pc = ref pc and po = ref po in
        for _ = 0 to n - 1 do
          od.(!po) <- f ad.(!pa) bd.(!pb) cd.(!pc);
          pa := !pa + ka;
          pb := !pb + kb;
          pc := !pc + kc;
          po := !po + ko
        done
      end
      else
        for i = 0 to shape.(d) - 1 do
          go (d + 1)
            (pa + (i * sa.(d)))
            (pb + (i * sb.(d)))
            (pc + (i * sc.(d)))
            (po + (i * so.(d)))
        done
    in
    let total = Shape.numel shape in
    if total > 0 then begin
      let dcut = collapse_cut so [ sa; sb; sc ] shape in
      if dcut = 0 then
        (* fully flat: chunk over elements, not rows *)
        let ka = flat_step sa shape 0
        and kb = flat_step sb shape 0
        and kc = flat_step sc shape 0 in
        pchunk ~bytes_per_iter:32 ~total total (fun lo hi ->
            let pa = ref (a.Tensor.offset + (lo * ka)) in
            let pb = ref (b.Tensor.offset + (lo * kb)) in
            let pc = ref (c.Tensor.offset + (lo * kc)) in
            let po = ref (out.Tensor.offset + lo) in
            for _ = lo to hi - 1 do
              od.(!po) <- f ad.(!pa) bd.(!pb) cd.(!pc);
              pa := !pa + ka;
              pb := !pb + kb;
              pc := !pc + kc;
              po := !po + 1
            done)
      else if nd = 1 then
        go 0 a.Tensor.offset b.Tensor.offset c.Tensor.offset out.Tensor.offset
      else
        pchunk ~total shape.(0) (fun lo hi ->
            for i = lo to hi - 1 do
              go 1
                (a.Tensor.offset + (i * sa.(0)))
                (b.Tensor.offset + (i * sb.(0)))
                (c.Tensor.offset + (i * sc.(0)))
                (out.Tensor.offset + (i * so.(0)))
            done)
    end
  end

(* --- the operators --- *)

(* Output allocation: the scheduler's per-node path passes the engine's
   storage pool via [?alloc] so intermediates recycle instead of hitting
   the major heap on every node.  Every operator below overwrites the
   whole output, so the pool's unspecified contents never leak into
   results.  Without an allocator (worker-domain bodies, external
   callers) outputs are plain zero-filled tensors, as before. *)
let fresh alloc shape =
  match alloc with Some a -> a shape | None -> Tensor.zeros shape

let clone ?alloc t =
  let out = fresh alloc (Tensor.shape t) in
  elementwise1 (fun v -> v) out t;
  out

let contig t = if Tensor.is_contiguous t then t else clone t

(* dst <- src for equal shapes and distinct storages; otherwise defer to
   the snapshotting reference implementation. *)
let copy_into (dst : Tensor.t) (src : Tensor.t) =
  if
    Shape.equal (Tensor.shape dst) (Tensor.shape src)
    && not (Tensor.same_storage dst src)
  then elementwise1 (fun v -> v) dst src
  else ignore (Inplace.copy_ dst src)

(* 0-d operands short-circuit the broadcast/stride machinery entirely:
   overhead-bound workloads (nms) compute on scalar tensors almost
   exclusively. *)
let scalar0 (t : Tensor.t) = (data t).(t.Tensor.offset)

(* Native inner loops (gemm_stubs.c) for the flat case: when the whole
   iteration collapses to one run (contiguous output, constant-step
   inputs), the per-element closure dispatch and bounds checks go away.
   The stubs apply the exact operations of the OCaml reference (same
   libm symbols, same IEEE primitives), so results stay bitwise
   identical; operators whose OCaml semantics differ from C's
   (Float.max/min/equal NaN and signed-zero rules) have no code and keep
   the closure path. *)
(* kind, src, offset, element step, row stride, dst, offset, rows, n *)
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
  unit = "functs_unary_map_bytecode" "functs_unary_map"
[@@noalloc]

(* kind, a, aoff, astep, arow, b, boff, bstep, brow, dst, doff, rows, n *)
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
  unit = "functs_binary_map_bytecode" "functs_binary_map"
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

let binary_code : Scalar.binary -> int option = function
  | Scalar.Add -> Some 0
  | Scalar.Sub -> Some 1
  | Scalar.Mul -> Some 2
  | Scalar.Div -> Some 3
  | Scalar.Pow -> Some 4
  | Scalar.Lt -> Some 5
  | Scalar.Gt -> Some 6
  | Scalar.Max | Scalar.Min | Scalar.Eq -> None

let unary ?alloc fn a =
  if Tensor.ndim a = 0 then Tensor.scalar (Scalar.apply_unary fn (scalar0 a))
  else begin
    let out = fresh alloc (Tensor.shape a) in
    let shape = out.Tensor.shape in
    let total = Shape.numel shape in
    let nd = Array.length shape in
    let sa = bstrides a nd in
    (* [out] is freshly allocated, hence contiguous: only the input's
       layout decides between the one-run, rows-over-flat-suffix and
       generic strided forms. *)
    (if total = 0 then ()
     else
       let code = unary_code fn in
       let ad = data a and od = data out in
       match suffix_step sa shape 0 with
       | Some ka ->
           pchunk ~bytes_per_iter:16 ~total total (fun lo hi ->
               unary_map code ad
                 (a.Tensor.offset + (lo * ka))
                 ka 0 od
                 (out.Tensor.offset + lo)
                 1 (hi - lo))
       | None -> (
           match (if nd >= 2 then suffix_step sa shape 1 else None) with
           | Some ka ->
               let n = total / shape.(0) in
               pchunk ~bytes_per_iter:(16 * n) ~total shape.(0) (fun lo hi ->
                   unary_map code ad
                     (a.Tensor.offset + (lo * sa.(0)))
                     ka sa.(0) od
                     (out.Tensor.offset + (lo * n))
                     (hi - lo) n)
           | None -> elementwise1 (Scalar.apply_unary fn) out a));
    out
  end

let binary ?alloc fn a b =
  if Tensor.ndim a = 0 && Tensor.ndim b = 0 then
    Tensor.scalar (Scalar.apply_binary fn (scalar0 a) (scalar0 b))
  else begin
    let out = fresh alloc (Shape.broadcast (Tensor.shape a) (Tensor.shape b)) in
    let shape = out.Tensor.shape in
    let total = Shape.numel shape in
    let nd = Array.length shape in
    let sa = bstrides a nd and sb = bstrides b nd in
    (if total = 0 then ()
     else
       match binary_code fn with
       | None -> elementwise2 (Scalar.apply_binary fn) out a b
       | Some code -> (
           let ad = data a and bd = data b and od = data out in
           match (suffix_step sa shape 0, suffix_step sb shape 0) with
           | Some ka, Some kb ->
               pchunk ~bytes_per_iter:24 ~total total (fun lo hi ->
                   binary_map code ad
                     (a.Tensor.offset + (lo * ka))
                     ka 0 bd
                     (b.Tensor.offset + (lo * kb))
                     kb 0 od
                     (out.Tensor.offset + lo)
                     1 (hi - lo))
           | _ -> (
               match
                 ( (if nd >= 2 then suffix_step sa shape 1 else None),
                   (if nd >= 2 then suffix_step sb shape 1 else None) )
               with
               | Some ka, Some kb ->
                   let n = total / shape.(0) in
                   pchunk ~bytes_per_iter:(24 * n) ~total shape.(0)
                     (fun lo hi ->
                       binary_map code ad
                         (a.Tensor.offset + (lo * sa.(0)))
                         ka sa.(0) bd
                         (b.Tensor.offset + (lo * sb.(0)))
                         kb sb.(0) od
                         (out.Tensor.offset + (lo * n))
                         (hi - lo) n)
               | _ -> elementwise2 (Scalar.apply_binary fn) out a b)));
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
    elementwise3 (fun cv av bv -> if cv <> 0.0 then av else bv) out c a b;
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
