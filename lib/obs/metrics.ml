(* Counters are bumped from several domains at once (session shards, a
   dispatcher domain), so they are atomic; an [incr] is one
   fetch-and-add. *)
type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; mutable g_value : float }

(* --- log-bucketed histograms (HDR-style) ---

   Each positive sample lands in one of [subcount] linear sub-buckets of
   its power-of-two octave, so the relative width of every bucket is
   1/subcount (6.25%) and a percentile read from bucket midpoints is
   within half a bucket of the exact sorted-sample quantile.  The
   exponent range covers 2^-41 .. 2^64 — nanoseconds-as-microseconds up
   to days — with everything outside it (and zero / negative / non-finite
   samples) pinned to the underflow/overflow buckets.

   [observe] must stay a store-only hot-path op: compute the index from
   the float's mantissa/exponent, bump one int cell, update
   count/sum/min/max.  No allocation, no lock, no branch on registry
   state.  Concurrent updates from worker domains may lose increments
   (plain int stores, unlike counters); every current producer observes
   from its own dispatching domain. *)

let subcount = 16
let e_min = -40
let e_max = 63
let nbuckets = ((e_max - e_min + 1) * subcount) + 2
let underflow = 0
let overflow = nbuckets - 1

let bucket_of v =
  if not (v > 0.) then underflow (* <= 0 and nan *)
  else if v = Float.infinity then overflow
  else begin
    let m, e = Float.frexp v in
    if e < e_min then underflow
    else if e > e_max then overflow
    else
      1
      + ((e - e_min) * subcount)
      + int_of_float ((m -. 0.5) *. 2. *. float_of_int subcount)
  end

(* Geometric-ish midpoint of a bucket: the center of its linear
   sub-range.  Underflow reports 0, overflow the range top; percentile
   clamps both against the recorded min/max anyway. *)
let bucket_mid i =
  if i = underflow then 0.
  else if i = overflow then Float.ldexp 1. (e_max + 1)
  else begin
    let k = i - 1 in
    let e = (k / subcount) + e_min in
    let sub = k mod subcount in
    let lower = 0.5 +. (float_of_int sub *. (0.5 /. float_of_int subcount)) in
    Float.ldexp (lower +. (0.25 /. float_of_int subcount)) e
  end

type histogram = {
  hg_name : string;
  mutable hg_count : int;
  mutable hg_sum : float;
  mutable hg_min : float;
  mutable hg_max : float;
  hg_buckets : int array;  (* dense, [nbuckets] cells *)
}

(* One registry per process.  Creation is rare (module init of the
   instrumented layers) and mutex-protected; updates go straight at the
   instrument's mutable fields. *)
type registry = {
  r_lock : Mutex.t;
  r_counters : (string, counter) Hashtbl.t;
  r_gauges : (string, gauge) Hashtbl.t;
  r_histograms : (string, histogram) Hashtbl.t;
}

let reg =
  {
    r_lock = Mutex.create ();
    r_counters = Hashtbl.create 32;
    r_gauges = Hashtbl.create 16;
    r_histograms = Hashtbl.create 16;
  }

let locked f =
  Mutex.lock reg.r_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.r_lock) f

let intern tbl name create =
  locked (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some x -> x
      | None ->
          let x = create name in
          Hashtbl.replace tbl name x;
          x)

let counter name =
  intern reg.r_counters name (fun c_name ->
      { c_name; c_value = Atomic.make 0 })

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_value by)
let value c = Atomic.get c.c_value
let reset_counter c = Atomic.set c.c_value 0

let gauge name = intern reg.r_gauges name (fun g_name -> { g_name; g_value = 0. })
let set g v = g.g_value <- v
let gauge_value g = g.g_value

let histogram name =
  intern reg.r_histograms name (fun hg_name ->
      {
        hg_name;
        hg_count = 0;
        hg_sum = 0.;
        hg_min = 0.;
        hg_max = 0.;
        hg_buckets = Array.make nbuckets 0;
      })

let observe h v =
  if h.hg_count = 0 then begin
    h.hg_min <- v;
    h.hg_max <- v
  end
  else begin
    if v < h.hg_min then h.hg_min <- v;
    if v > h.hg_max then h.hg_max <- v
  end;
  h.hg_count <- h.hg_count + 1;
  h.hg_sum <- h.hg_sum +. v;
  let i = bucket_of v in
  h.hg_buckets.(i) <- h.hg_buckets.(i) + 1

(* --- snapshots --- *)

type hstat = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (int * int) list;  (* sparse (index, count), ascending *)
}

let hstat_zero =
  { h_count = 0; h_sum = 0.; h_min = 0.; h_max = 0.; h_buckets = [] }

let sparse_of_dense dense =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if dense.(i) <> 0 then acc := (i, dense.(i)) :: !acc
  done;
  !acc

(* Nearest-rank percentile over the sparse buckets: the smallest bucket
   whose cumulative count reaches ceil(p * count), reported as the bucket
   midpoint clamped to the recorded [min, max].  Within one bucket
   (1/subcount relative width) of the exact sorted-sample quantile. *)
let percentile h p =
  if h.h_count = 0 then 0.
  else begin
    let p = Float.max 0. (Float.min 1. p) in
    let rank = max 1 (int_of_float (ceil (p *. float_of_int h.h_count))) in
    let rec walk cum = function
      | [] -> h.h_max
      | (i, n) :: rest ->
          let cum = cum + n in
          if cum >= rank then Float.max h.h_min (Float.min h.h_max (bucket_mid i))
          else walk cum rest
    in
    walk 0 h.h_buckets
  end

let mean h = if h.h_count = 0 then 0. else h.h_sum /. float_of_int h.h_count

(* Merge sparse bucket lists with [combine] on per-index counts; indices
   present in one side only keep (or negate per [combine]) their count.
   Drops zero cells so merge/diff stay canonical. *)
let combine_buckets combine a b =
  let rec go a b =
    match (a, b) with
    | [], rest -> List.filter_map (fun (i, n) -> keep i (combine 0 n)) rest
    | rest, [] -> List.filter_map (fun (i, n) -> keep i (combine n 0)) rest
    | (ia, na) :: ta, (ib, nb) :: tb ->
        if ia < ib then cons ia (combine na 0) (go ta b)
        else if ib < ia then cons ib (combine 0 nb) (go a tb)
        else cons ia (combine na nb) (go ta tb)
  and keep i n = if n = 0 then None else Some (i, n)
  and cons i n rest = match keep i n with None -> rest | Some c -> c :: rest in
  go a b

let merge a b =
  if a.h_count = 0 then b
  else if b.h_count = 0 then a
  else
    {
      h_count = a.h_count + b.h_count;
      h_sum = a.h_sum +. b.h_sum;
      h_min = Float.min a.h_min b.h_min;
      h_max = Float.max a.h_max b.h_max;
      h_buckets = combine_buckets ( + ) a.h_buckets b.h_buckets;
    }

(* Window between two snapshots of the SAME histogram ([before] taken
   first): per-bucket count deltas.  The window's exact min/max are not
   recoverable from cumulative state, so they are re-derived from the
   surviving buckets' midpoints — within one bucket of the truth, which
   is all percentile needs. *)
let diff ~before ~after =
  let buckets =
    combine_buckets (fun a b -> max 0 (a - b)) after.h_buckets before.h_buckets
  in
  let count = max 0 (after.h_count - before.h_count) in
  if count = 0 || buckets = [] then hstat_zero
  else begin
    let lo = fst (List.hd buckets) in
    let hi = fst (List.nth buckets (List.length buckets - 1)) in
    {
      h_count = count;
      h_sum = Float.max 0. (after.h_sum -. before.h_sum);
      h_min = (if lo = underflow then Float.min 0. after.h_min else bucket_mid lo);
      h_max = Float.min after.h_max (bucket_mid hi *. (1. +. (0.5 /. float_of_int subcount)));
      h_buckets = buckets;
    }
  end

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hstat) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  locked (fun () ->
      let counters =
        Hashtbl.fold (fun k c acc -> (k, value c) :: acc) reg.r_counters []
      in
      let gauges =
        Hashtbl.fold (fun k g acc -> (k, g.g_value) :: acc) reg.r_gauges []
      in
      let histograms =
        Hashtbl.fold
          (fun k h acc ->
            ( k,
              {
                h_count = h.hg_count;
                h_sum = h.hg_sum;
                h_min = h.hg_min;
                h_max = h.hg_max;
                h_buckets = sparse_of_dense h.hg_buckets;
              } )
            :: acc)
          reg.r_histograms []
      in
      {
        counters = List.sort by_name counters;
        gauges = List.sort by_name gauges;
        histograms = List.sort by_name histograms;
      })

let hstat_of snap name = List.assoc_opt name snap.histograms

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> reset_counter c) reg.r_counters;
      Hashtbl.iter (fun _ g -> g.g_value <- 0.) reg.r_gauges;
      Hashtbl.iter
        (fun _ h ->
          h.hg_count <- 0;
          h.hg_sum <- 0.;
          h.hg_min <- 0.;
          h.hg_max <- 0.;
          Array.fill h.hg_buckets 0 nbuckets 0)
        reg.r_histograms)

let to_text s =
  let b = Buffer.create 512 in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%-32s %d\n" k v))
    s.counters;
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%-32s %g\n" k v))
    s.gauges;
  List.iter
    (fun (k, h) ->
      Buffer.add_string b
        (Printf.sprintf
           "%-32s count=%d sum=%g min=%g max=%g p50=%g p90=%g p99=%g\n" k
           h.h_count h.h_sum h.h_min h.h_max (percentile h 0.50)
           (percentile h 0.90) (percentile h 0.99)))
    s.histograms;
  Buffer.contents b

let to_json s =
  Json.to_string
    (Json.Obj
       [
         ( "counters",
           Json.Obj
             (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) s.counters)
         );
         ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.gauges));
         ( "histograms",
           Json.Obj
             (List.map
                (fun (k, h) ->
                  ( k,
                    Json.Obj
                      [
                        ("count", Json.Num (float_of_int h.h_count));
                        ("sum", Json.Num h.h_sum);
                        ("min", Json.Num h.h_min);
                        ("max", Json.Num h.h_max);
                        ( "buckets",
                          Json.Arr
                            (List.map
                               (fun (i, n) ->
                                 Json.Arr
                                   [
                                     Json.Num (float_of_int i);
                                     Json.Num (float_of_int n);
                                   ])
                               h.h_buckets) );
                      ] ))
                s.histograms) );
       ])

let of_json text =
  let fail fmt = Printf.ksprintf failwith fmt in
  let num = function
    | Json.Num f -> f
    | _ -> fail "metrics JSON: expected a number"
  in
  let obj = function
    | Json.Obj fields -> fields
    | _ -> fail "metrics JSON: expected an object"
  in
  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> fail "metrics JSON: missing field %S" name
  in
  match Json.parse text with
  | Error msg -> failwith msg
  | Ok root ->
      let counters =
        List.map
          (fun (k, v) -> (k, int_of_float (num v)))
          (obj (field "counters" root))
      in
      let gauges =
        List.map (fun (k, v) -> (k, num v)) (obj (field "gauges" root))
      in
      let buckets_of j =
        (* absent in pre-bucket dumps: degrade to the summary stats *)
        match Json.member "buckets" j with
        | None -> []
        | Some (Json.Arr cells) ->
            List.map
              (function
                | Json.Arr [ i; n ] -> (int_of_float (num i), int_of_float (num n))
                | _ -> fail "metrics JSON: malformed bucket cell")
              cells
        | Some _ -> fail "metrics JSON: buckets must be an array"
      in
      let histograms =
        List.map
          (fun (k, v) ->
            ( k,
              {
                h_count = int_of_float (num (field "count" v));
                h_sum = num (field "sum" v);
                h_min = num (field "min" v);
                h_max = num (field "max" v);
                h_buckets = buckets_of v;
              } ))
          (obj (field "histograms" root))
      in
      {
        counters = List.sort by_name counters;
        gauges = List.sort by_name gauges;
        histograms = List.sort by_name histograms;
      }
