(* Seconds on the monotonic clock.  Every latency and duration the
   benchmark reports is a difference of two readings of this clock, never
   of the program's own wall-clock stamps. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
