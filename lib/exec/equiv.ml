open Functs_interp
open Functs_tensor

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* libmvec's vector transcendentals are within 4 ulp of scalar libm *)
let libmvec_close x y =
  same_bits x y
  || Float.abs (x -. y) <= 1e-12 +. (1e-9 *. Float.abs y)
  || (Float.is_nan x && Float.is_nan y)

let rec value ~close a b =
  match (a, b) with
  | Value.Tensor x, Value.Tensor y ->
      Shape.equal x.Tensor.shape y.Tensor.shape
      &&
      let ok = ref true in
      Tensor.iteri x (fun ix v ->
          if not (close v (Tensor.get y ix)) then ok := false);
      !ok
  | Value.Float x, Value.Float y -> close x y
  | Value.Int x, Value.Int y -> x = y
  | Value.Bool x, Value.Bool y -> x = y
  | Value.List xs, Value.List ys -> values ~close xs ys
  | (Value.Tensor _ | Value.Float _ | Value.Int _ | Value.Bool _ | Value.List _), _ ->
      false

and values ~close xs ys =
  List.length xs = List.length ys && List.for_all2 (value ~close) xs ys

let bitwise = values ~close:same_bits
let matches ~native = values ~close:(if native then libmvec_close else same_bits)

let run eng args =
  let c0 = (Engine.stats eng).Scheduler.cjit_runs in
  let got = Engine.run eng args in
  (got, (Engine.stats eng).Scheduler.cjit_runs > c0)
