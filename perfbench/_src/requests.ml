(* Request generation and the correctness oracle.

   A run serves a fixed set of distinct requests generated from the
   benchmark's seed.  Arguments the workload declares batched (an axis in
   [Workload.batching.input_axes]) are fresh per request; arguments it
   declares shared ([None], e.g. lstm's weight matrix [u]) are generated
   once and handed to every request as the same physical tensor.  The
   session only buckets requests whose shared arguments are physically
   identical, so fresh copies would silently turn off batching. *)

open Functs

type request = {
  args : Value.t list;
  expected : Value.t list;  (** the reference interpreter's outputs *)
  flat : float array option list;  (** row-major copies of the tensor ones *)
}

let per_request_axes (w : Workload.t) template =
  match w.Workload.batching with
  | Some bx -> bx.Workload.input_axes
  | None -> List.map (fun _ -> Some 0) template

let clone_args =
  List.map (function
    | Value.Tensor t -> Value.Tensor (Tensor.clone t)
    | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)

(* Argument lists only, without reference outputs (the per-layer calls
   and the tests need the inputs alone). *)
let generate_args (w : Workload.t) ~batch ~seq ~seed ~distinct =
  let template = w.Workload.inputs ~batch ~seq in
  let axes = per_request_axes w template in
  let st = Random.State.make [| seed; 0x1e57 |] in
  let fresh = function
    | Value.Tensor t -> Value.Tensor (Tensor.rand st (Tensor.shape t))
    | v -> v
  in
  let shared =
    List.map2 (fun ax v -> match ax with None -> Some (fresh v) | Some _ -> None)
      axes template
  in
  Array.init distinct (fun _ ->
      List.map2
        (fun sh v -> match sh with Some s -> s | None -> fresh v)
        shared template)

(* The reference graph is the eager program (before functionalization),
   which the interpreter runs with imperative semantics — it writes its
   arguments, hence the clone. *)
let generate w ~batch ~seq ~seed ~distinct =
  let reference = Workload.graph w ~batch ~seq in
  Array.map
    (fun args ->
      let expected = Eval.run reference (clone_args args) in
      let flat =
        List.map
          (function Value.Tensor t -> Some (Tensor.to_flat_array t) | _ -> None)
          expected
      in
      { args; expected; flat })
    (generate_args w ~batch ~seq ~seed ~distinct)

(* Bitwise, or within 1e-9 relative (1e-12 absolute) per element: the C
   lane's vectorised transcendentals come from libmvec, specified to
   within 4 ulp of scalar libm, so an exact gate would fail correct
   replies.  Non-tensor values compare under the engine's 1e-4 gate. *)
let close_enough e g =
  Int64.equal (Int64.bits_of_float e) (Int64.bits_of_float g)
  || Float.abs (e -. g) <= 1e-12 +. (1e-9 *. Float.abs e)

(* Replies are often strided views (the session gathers batched outputs
   with [Tensor.split_axis]), so walk the reply in row-major order straight
   off its storage against the expected values: no allocation and no index
   arrays per element.  A per-element [Tensor.get] walk cost about 1 ms
   per lstm reply. *)
let same_tensor expected (got : Tensor.t) =
  let shape = got.Tensor.shape and strides = got.Tensor.strides in
  let data = Functs_tensor.Storage.data got.Tensor.storage in
  let nd = Array.length shape in
  let k = ref 0 in
  let rec walk dim off =
    let n = shape.(dim) and st = strides.(dim) in
    let ok = ref true and i = ref 0 in
    if dim = nd - 1 then
      while !ok && !i < n do
        ok := close_enough expected.(!k) data.(off + (!i * st));
        incr k;
        incr i
      done
    else
      while !ok && !i < n do
        ok := walk (dim + 1) (off + (!i * st));
        incr i
      done;
    !ok
  in
  if nd = 0 then close_enough expected.(0) data.(got.Tensor.offset)
  else walk 0 got.Tensor.offset

let matches r outputs =
  List.length outputs = List.length r.expected
  && List.for_all2
       (fun (e, flat) got ->
         match (e, flat, got) with
         | Value.Tensor et, Some flat, Value.Tensor gt ->
             Tensor.shape et = Tensor.shape gt && same_tensor flat gt
         | _ -> Value.equal ~atol:1e-4 e got)
       (List.combine r.expected r.flat)
       outputs
