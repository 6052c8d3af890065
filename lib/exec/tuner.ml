module Journal = Functs_obs.Journal

(* An expiring-pin, min-of-N auto-tuner over a fixed list of arms.

   Sampling is INTERLEAVED: the next launch runs the first arm (in list
   order) with the fewest samples still under [sample_runs], so a
   transient slowdown spanning several launches taxes every arm instead
   of condemning whichever one was being sampled.  Each arm keeps the
   MINIMUM of its samples, not the sum — a GC pause landing in one
   arm's single sample used to flip whole processes into the slower
   mode for good.  Once every live arm has [sample_runs] samples the
   fastest one is pinned, ties going to the earlier arm.

   Pins EXPIRE.  A decision made from a few launches on a noisy shared
   host can be wrong — a CPU-steal burst landing on the fast arm's
   samples pins the slow arm permanently — so every pin carries a
   launch budget; when it runs out the tuner re-enters sampling.  The
   budget doubles each time a pin is re-confirmed (16, 32, … 4096), so
   a mis-pin heals within a few launches while a stable pin costs
   asymptotically nothing.  On expiry the incumbent is SEEDED with the
   best launch of its pin window and marked fully sampled, so only the
   challengers re-run.  Noise on this kind of host is strictly additive,
   so a truly-slower challenger can never sample below the incumbent's
   long-window minimum — a correct pin never flips — while a wrong pin
   heals the first time a quiet window lets the faster challenger
   undercut it.

   The tuner never reads the clock: callers time their launches and
   hand the durations to {!record}. *)

let sample_runs = 3
let pin_period_init = 16
let pin_period_max = 4096

type 'a state = {
  scope : string;
  id : int;
  arms : 'a array;
  names : string array;
  live : bool array;  (* per arm: not dropped *)
  best : float array;  (* per arm: fastest sample this window *)
  runs : int array;  (* per arm: samples this window *)
  mutable cur : int;  (* index of the arm the next launch runs *)
  mutable sampling : bool;
  mutable frozen : bool;
  mutable pin_left : int;  (* launches before the pin expires *)
  mutable period : int;  (* current pin budget *)
  mutable pin_best : float;  (* fastest launch of the current pin window *)
  mutable last_pin : int;  (* index of the previous pin, -1 before any *)
  mutable total : float;  (* accumulated launch seconds (attribution) *)
  mutable launches : int;
}

(* [arm] mirrors [st.arms.(st.cur)] one load away from the dispatcher. *)
type 'a t = { mutable arm : 'a; st : 'a state }

let index s a =
  let rec go i = if s.arms.(i) == a then i else go (i + 1) in
  go 0

let set t i =
  t.st.cur <- i;
  t.arm <- t.st.arms.(i)

(* The next arm to sample, or -1 when every live arm is fully sampled. *)
let pick s =
  let p = ref (-1) in
  Array.iteri
    (fun i _ ->
      if
        s.live.(i)
        && s.runs.(i) < sample_runs
        && (!p < 0 || s.runs.(i) < s.runs.(!p))
      then p := i)
    s.arms;
  !p

let fastest s =
  let p = ref (-1) in
  Array.iteri
    (fun i _ ->
      if s.live.(i) && (!p < 0 || s.best.(i) < s.best.(!p)) then p := i)
    s.arms;
  !p

let create ~scope ~id ~name arms =
  let arms = Array.of_list arms in
  let n = Array.length arms in
  if n = 0 then invalid_arg "Tuner.create: no arms";
  {
    arm = arms.(0);
    st =
      {
        scope;
        id;
        arms;
        names = Array.map name arms;
        live = Array.make n true;
        best = Array.make n infinity;
        runs = Array.make n 0;
        cur = 0;
        sampling = true;
        frozen = false;
        pin_left = 0;
        period = 0;
        pin_best = infinity;
        last_pin = -1;
        total = 0.;
        launches = 0;
      };
  }

let pin t i =
  let s = t.st in
  s.period <- min (max pin_period_init (s.period * 2)) pin_period_max;
  s.pin_left <- s.period;
  s.pin_best <- infinity;
  s.sampling <- false;
  set t i;
  let kind : Journal.kind =
    if s.last_pin >= 0 && s.last_pin <> i then Tuner_flip else Tuner_pin
  in
  Journal.record kind s.scope ~id:s.id ~arm:s.names.(i)
    ~detail:(Printf.sprintf "budget=%d" s.period);
  s.last_pin <- i

(* Move on to the next sample, or pin the winner once every live arm
   has its samples. *)
let advance t =
  match pick t.st with -1 -> pin t (fastest t.st) | j -> set t j

let expire t =
  let s = t.st in
  Journal.record Tuner_expire s.scope ~id:s.id ~arm:s.names.(s.cur)
    ~value:s.pin_best;
  Array.fill s.runs 0 (Array.length s.runs) 0;
  Array.fill s.best 0 (Array.length s.best) infinity;
  s.runs.(s.cur) <- sample_runs;
  s.best.(s.cur) <- s.pin_best;
  s.sampling <- true;
  advance t

let record t a dt =
  let s = t.st in
  s.total <- s.total +. dt;
  s.launches <- s.launches + 1;
  if s.sampling then begin
    let i = index s a in
    Journal.record Tuner_sample s.scope ~id:s.id ~arm:s.names.(i)
      ~value:(1e6 *. dt);
    s.best.(i) <- Float.min s.best.(i) dt;
    s.runs.(i) <- s.runs.(i) + 1;
    advance t
  end
  else begin
    s.pin_best <- Float.min s.pin_best dt;
    s.pin_left <- s.pin_left - 1;
    if s.pin_left <= 0 && not s.frozen then expire t
  end

let drop t a =
  let s = t.st in
  let i = index s a in
  s.live.(i) <- false;
  if s.cur = i then begin
    let n = Array.length s.arms in
    let rec next k =
      if k < n then
        let j = (i + k) mod n in
        if s.live.(j) then set t j else next (k + 1)
    in
    next 1
  end

let freeze t a ~detail =
  let s = t.st in
  let i = index s a in
  s.frozen <- true;
  s.sampling <- false;
  set t i;
  s.last_pin <- i;
  Journal.record Tuner_pin s.scope ~id:s.id ~arm:s.names.(i) ~detail

let live t a =
  let s = t.st in
  let rec go i =
    i < Array.length s.arms && ((s.arms.(i) == a && s.live.(i)) || go (i + 1))
  in
  go 0

let best t a =
  let i = index t.st a in
  if t.st.live.(i) then t.st.best.(i) else infinity

let pinned t = if t.st.sampling then None else Some t.arm
let label t = if t.st.sampling then "sampling" else t.st.names.(t.st.cur)
let frozen t = t.st.frozen
let total t = t.st.total
let launches t = t.st.launches
