open Functs_interp
open Functs_tensor

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let rec value a b =
  match (a, b) with
  | Value.Tensor x, Value.Tensor y ->
      Shape.equal x.Tensor.shape y.Tensor.shape
      &&
      let ok = ref true in
      Tensor.iteri x (fun ix v ->
          if not (same_bits v (Tensor.get y ix)) then ok := false);
      !ok
  | Value.Float x, Value.Float y -> same_bits x y
  | Value.Int x, Value.Int y -> x = y
  | Value.Bool x, Value.Bool y -> x = y
  | Value.List xs, Value.List ys -> bitwise xs ys
  | (Value.Tensor _ | Value.Float _ | Value.Int _ | Value.Bool _ | Value.List _), _ ->
      false

and bitwise xs ys = List.length xs = List.length ys && List.for_all2 value xs ys
