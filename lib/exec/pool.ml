(* Shared-counter runtime: one job at a time.

   A dispatch publishes one job — [n] iterations cut into [ntasks]
   contiguous tasks — and every lane (the dispatcher plus any woken
   worker) claims task indices from the job's single
   [Atomic.fetch_and_add] counter until it runs past [ntasks].  A lane
   that finishes early simply claims the next index, so skewed iteration
   costs rebalance without per-lane queues.

   A [busy] flag admits one dispatch at a time: a [parallel_for] issued
   while a job is active — from a task body, or from a second external
   domain — runs its whole range on its caller (counted as nested).
   Completion never depends on the workers: the dispatcher claims tasks
   like any lane, and blocks only once every task is claimed and some
   are still running on workers. *)

type job = {
  j_body : int -> int -> unit;
  j_n : int;
  j_chunk : int;
  j_ntasks : int;
  j_next : int Atomic.t;  (* next unclaimed task index *)
  j_pending : int Atomic.t;  (* tasks not yet finished *)
  j_err : exn option Atomic.t;  (* first exception raised by a task *)
}

type t = {
  mutable lanes : int;
  mutable doms : unit Domain.t array;
  mutable live : bool;  (* false once shut down: workers exit *)
  busy : bool Atomic.t;  (* a dispatch is in flight *)
  current : job option Atomic.t;  (* the job workers claim from *)
  m : Mutex.t;  (* guards [wakes] and [live] for the two conditions *)
  wake_c : Condition.t;  (* parked workers wait for [wakes] to move *)
  fin_c : Condition.t;  (* signalled when a job's last task finishes *)
  mutable wakes : int;  (* bumped by every dispatch that wakes workers *)
  c_dispatches : ctr;
  c_sequential : ctr;
  c_fb_grain : ctr;
  c_fb_nested : ctr;
  c_fb_disabled : ctr;
  c_worker_tasks : ctr;
  c_caller_tasks : ctr;
}

(* A per-pool count plus its process-wide [pool.*] metric aggregate;
   per-engine attribution is done by the scheduler via boundary
   snapshots of the per-pool getters. *)
and ctr = { count : int Atomic.t; metric : Functs_obs.Metrics.counter }

let ctr name =
  { count = Atomic.make 0; metric = Functs_obs.Metrics.counter ("pool." ^ name) }

let bump c =
  Atomic.incr c.count;
  Functs_obs.Metrics.incr c.metric

(* --- cache budget ---

   Task granularity targets [chunk_bytes] of traffic per task so a
   chunk's working set stays cache-resident.  Probed once from sysfs
   (half the L2 of cpu0 — the private cache a lane effectively owns),
   overridable through [set_chunk_bytes] ([Config.of_env] wires
   FUNCTS_CHUNK_BYTES to it; this module never reads the
   environment). *)

let parse_cache_size s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then None
  else
    let mult, digits =
      match s.[len - 1] with
      | 'K' | 'k' -> (1024, String.sub s 0 (len - 1))
      | 'M' | 'm' -> (1024 * 1024, String.sub s 0 (len - 1))
      | 'G' | 'g' -> (1024 * 1024 * 1024, String.sub s 0 (len - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt (String.trim digits) with
    | Some n when n > 0 -> Some (n * mult)
    | _ -> None

let probe_chunk_bytes () =
  let base = "/sys/devices/system/cpu/cpu0/cache" in
  let l2 = ref 0 and l3 = ref 0 in
  (try
     Array.iter
       (fun name ->
         try
           let read leaf =
             let ic = open_in (Filename.concat (Filename.concat base name) leaf) in
             Fun.protect
               ~finally:(fun () -> close_in_noerr ic)
               (fun () -> input_line ic)
           in
           let ty = String.trim (read "type") in
           if ty = "Unified" || ty = "Data" then
             match (int_of_string_opt (String.trim (read "level")),
                    parse_cache_size (read "size"))
             with
             | Some 2, Some s -> l2 := max !l2 s
             | Some 3, Some s -> l3 := max !l3 s
             | _ -> ()
         with _ -> ())
       (Sys.readdir base)
   with _ -> ());
  if !l2 > 0 then !l2 / 2
  else if !l3 > 0 then min (!l3 / 4) (8 * 1024 * 1024)
  else 256 * 1024

let probed_chunk_bytes = lazy (probe_chunk_bytes ())
let chunk_bytes_override = ref 0

let set_chunk_bytes n = chunk_bytes_override := max 0 n

let chunk_bytes () =
  if !chunk_bytes_override > 0 then !chunk_bytes_override
  else Lazy.force probed_chunk_bytes

(* --- task execution --- *)

(* Claim and run tasks of [j] until its counter passes [ntasks],
   counting each in [c] (worker or caller tasks).  The lane that
   finishes the last task wakes the dispatcher blocked in [dispatch]. *)
let rec claim_tasks t j c =
  let k = Atomic.fetch_and_add j.j_next 1 in
  if k < j.j_ntasks then begin
    let lo = k * j.j_chunk in
    (try j.j_body lo (min j.j_n (lo + j.j_chunk))
     with e -> ignore (Atomic.compare_and_set j.j_err None (Some e)));
    bump c;
    if Atomic.fetch_and_add j.j_pending (-1) = 1 then
      Mutex.protect t.m (fun () -> Condition.broadcast t.fin_c);
    claim_tasks t j c
  end

(* --- workers --- *)

let cores = lazy (max 1 (Domain.recommended_domain_count ()))

(* Waking a worker is only ever a throughput win when a spare physical
   core can run it; on a machine with one core every signalled worker
   just preempts the dispatcher mid-dispatch.  With no wakes the
   dispatcher claims every task itself — the range is always covered,
   lanes beyond the core count simply stay parked. *)
let wake_workers t k =
  let k = min k (min (Array.length t.doms) (Lazy.force cores - 1)) in
  if k > 0 then
    Mutex.protect t.m (fun () ->
        t.wakes <- t.wakes + 1;
        for _ = 1 to k do
          Condition.signal t.wake_c
        done)

(* Park until [wakes] moves past the last value seen, help with the
   current job, park again.  A wake raised while the worker is still
   helping moves [wakes] too, so no published job is missed. *)
let worker_loop t =
  let rec park seen =
    Mutex.lock t.m;
    while t.wakes = seen && t.live do
      Condition.wait t.wake_c t.m
    done;
    let seen = t.wakes and live = t.live in
    Mutex.unlock t.m;
    if live then begin
      Option.iter
        (fun j -> claim_tasks t j t.c_worker_tasks)
        (Atomic.get t.current);
      park seen
    end
  in
  park 0

let create ~lanes =
  let t =
    {
      lanes = 1;
      doms = [||];
      live = true;
      busy = Atomic.make false;
      current = Atomic.make None;
      m = Mutex.create ();
      wake_c = Condition.create ();
      fin_c = Condition.create ();
      wakes = 0;
      c_dispatches = ctr "dispatches";
      c_sequential = ctr "seq_fallbacks";
      c_fb_grain = ctr "fallback.grain";
      c_fb_nested = ctr "fallback.nested";
      c_fb_disabled = ctr "fallback.disabled";
      c_worker_tasks = ctr "worker_tasks";
      c_caller_tasks = ctr "caller_tasks";
    }
  in
  (* The runtime caps live domains; degrade to fewer workers rather than
     fail the engine if the cap is hit mid-spawn. *)
  (try
     for _ = 2 to lanes do
       t.doms <- Array.append t.doms [| Domain.spawn (fun () -> worker_loop t) |]
     done
   with _ -> ());
  t.lanes <- Array.length t.doms + 1;
  t

let lanes t = t.lanes

let shutdown t =
  if t.live then begin
    Mutex.protect t.m (fun () ->
        t.live <- false;
        Condition.broadcast t.wake_c);
    Array.iter Domain.join t.doms;
    t.lanes <- 1
  end

(* --- parallel_for --- *)

(* Oversubscription target: enough tasks per lane that early finishers
   can rebalance skew, few enough that per-task overhead stays
   negligible.  Lanes beyond the physical core count contribute no extra
   throughput, only task-handoff overhead, so the balance term is capped
   at the machine's recommended domain count — a 4-lane pool on a 2-core
   box chunks like a 2-lane pool instead of doubling its task count. *)
let tasks_per_lane = 4
let max_tasks = 256

let sequential t fb_counter n body =
  bump t.c_sequential;
  bump fb_counter;
  body 0 n;
  false

(* Runs with [busy] held by the caller. *)
let dispatch t ~n ~chunk ~ntasks body =
  Functs_obs.Tracer.span_args "pool.dispatch"
    ~args:(fun () -> [ ("n", string_of_int n); ("chunks", string_of_int ntasks) ])
  @@ fun () ->
  let j =
    {
      j_body = body;
      j_n = n;
      j_chunk = chunk;
      j_ntasks = ntasks;
      j_next = Atomic.make 0;
      j_pending = Atomic.make ntasks;
      j_err = Atomic.make None;
    }
  in
  Atomic.set t.current (Some j);
  wake_workers t (ntasks - 1);
  claim_tasks t j t.c_caller_tasks;
  (* every task is claimed; block (don't spin) until the ones still on
     workers finish — on an oversubscribed machine they need this CPU *)
  if Atomic.get j.j_pending > 0 then
    Mutex.protect t.m (fun () ->
        while Atomic.get j.j_pending > 0 do
          Condition.wait t.fin_c t.m
        done);
  Atomic.set t.current None;
  bump t.c_dispatches;
  j.j_err

let parallel_for ?(bytes_per_iter = 0) t ~grain ~n body =
  if n <= 0 then false
  else begin
    let grain = max 1 grain in
    (* cache-aware granularity: as many iterations as fit the per-lane
       cache budget, floored by the caller's grain, capped so each lane
       still sees several tasks to claim *)
    let chunk =
      let by_bytes =
        if bytes_per_iter > 0 then
          max 1 (chunk_bytes () / bytes_per_iter)
        else max_int
      in
      let denom = tasks_per_lane * min t.lanes (Lazy.force cores) in
      let balance = max 1 ((n + denom - 1) / denom) in
      max grain (min by_bytes balance)
    in
    let chunk = max chunk ((n + max_tasks - 1) / max_tasks) in
    let ntasks = (n + chunk - 1) / chunk in
    if (not t.live) || t.lanes < 2 then sequential t t.c_fb_disabled n body
    else if ntasks < 2 then sequential t t.c_fb_grain n body
    else if not (Atomic.compare_and_set t.busy false true) then
      sequential t t.c_fb_nested n body
    else begin
      (* tasks never raise out of [dispatch]: the first exception is
         re-raised only once the pool is free again *)
      let err = dispatch t ~n ~chunk ~ntasks body in
      Atomic.set t.busy false;
      Option.iter raise (Atomic.get err);
      true
    end
  end

let dispatches t = Atomic.get t.c_dispatches.count
let seq_fallbacks t = Atomic.get t.c_sequential.count
let fallback_grain t = Atomic.get t.c_fb_grain.count
let fallback_nested t = Atomic.get t.c_fb_nested.count
let fallback_disabled t = Atomic.get t.c_fb_disabled.count
let worker_tasks t = Atomic.get t.c_worker_tasks.count
let caller_tasks t = Atomic.get t.c_caller_tasks.count

(* --- shared pools --- *)

let shared_tbl : (int, t) Hashtbl.t = Hashtbl.create 4
let shared_mutex = Mutex.create ()
let () = at_exit (fun () -> Hashtbl.iter (fun _ p -> shutdown p) shared_tbl)

let shared ~lanes =
  let lanes = max 1 lanes in
  Mutex.protect shared_mutex (fun () ->
      match Hashtbl.find_opt shared_tbl lanes with
      | Some p when p.live -> p
      | _ ->
          let p = create ~lanes in
          Hashtbl.replace shared_tbl lanes p;
          p)
