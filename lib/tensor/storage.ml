type t = {
  data : float array;
  mutable mark_epoch : int;
  mutable mark : int;
  mutable owner : int;
}

let of_array data = { data; mark_epoch = 0; mark = 0; owner = 0 }
let create n = of_array (Array.make n 0.0)
let length t = Array.length t.data
let data t = t.data
let get t i = t.data.(i)
let set t i v = t.data.(i) <- v
let same a b = a == b
let copy t = of_array (Array.copy t.data)
let mark t ~epoch = if t.mark_epoch = epoch then t.mark else 0

let set_mark t ~epoch v =
  t.mark_epoch <- epoch;
  t.mark <- v

let owner t = t.owner
let set_owner t o = t.owner <- o
