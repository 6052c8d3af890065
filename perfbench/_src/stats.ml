(* Exact order statistics over raw samples.  The program's own latency
   histograms have buckets up to 6.25% wide, so a one-bucket flip would
   read as a regression; here every percentile is a sample. *)

(* Nearest rank: the smallest sample with at least [p] of the samples at
   or below it. *)
let quantile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median samples = quantile samples 0.5

(* Samples strictly above the [p] quantile: a percentile is only worth
   reporting with at least ten samples beyond it. *)
let beyond samples p =
  let q = quantile samples p in
  Array.fold_left (fun acc x -> if x > q then acc + 1 else acc) 0 samples

(* Growable float buffer, so the timed loops append without allocating a
   list cell per sample: every minor collection of the generator's domain
   also stops the session's dispatcher domain. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 1024 0.; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
