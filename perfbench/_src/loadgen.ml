(* The closed-loop load generator: a fixed number of requests
   outstanding; each reply is awaited oldest-first and immediately
   replaced, so a slow system gets less load.  Latency runs from send to
   reply, timed with {!Clock}; the program's own histograms are never
   read. *)

type ('tk, 'reply) system = {
  submit : int -> 'tk option;  (** request index → ticket; [None] = refused *)
  await : 'tk -> 'reply;
  served : 'reply -> bool;  (** a reply, not an error; cheap *)
  check : int -> 'reply -> bool;  (** reply correct for request index *)
  ticket_id : 'tk -> int;  (** the program's request id, for spans *)
}

type result = {
  latency : float array;  (** seconds, one per request completed in the window *)
  span : float;  (** window length in seconds *)
  attempted : int;  (** every request sent, warm-up and drain included *)
  failed : int;  (** refused, an error, or a reply that failed [check] *)
}

let throughput r = float_of_int (Array.length r.latency) /. r.span

(* A window's timings multiplied by [f] (see {!Calib}). *)
let scale f r = { r with latency = Array.map (fun l -> l *. f) r.latency; span = r.span *. f }

(* Several windows of one run, read as one: their samples pooled, their
   lengths summed. *)
let merge rs =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  {
    latency = Array.concat (List.map (fun r -> r.latency) rs);
    span = List.fold_left (fun acc r -> acc +. r.span) 0. rs;
    attempted = sum (fun r -> r.attempted);
    failed = sum (fun r -> r.failed);
  }

(* The mean over windows of each window's [p] quantile.  Unlike the
   quantile of the pooled samples, it does not hinge on which run a
   burst of the host's slow moments happened to land in; unlike their
   median, a stall in any one window moves it. *)
let mean_quantile rs p =
  let qs = List.filter_map (fun r -> if r.latency = [||] then None else Some (Stats.quantile r.latency p)) rs in
  List.fold_left ( +. ) 0. qs /. float_of_int (List.length qs)

(* Tracing wraps the two calls into the program in spans, with one
   request span as their parent. *)
let traced_submit sys trace i ~start =
  match trace with
  | None -> (sys.submit i, -1)
  | Some sp ->
      let rid = Spans.fresh_id sp in
      let t0 = Clock.now () in
      let tk = sys.submit i in
      let t1 = Clock.now () in
      let req = match tk with Some tk -> sys.ticket_id tk | None -> -1 in
      Spans.record sp ~id:(Spans.fresh_id sp) ~name:"serve.submit" ~start:t0
        ~stop:t1 ~parent:rid ~req;
      (* a refused request ends here; an accepted one at its reply *)
      if Option.is_none tk then
        Spans.record sp ~id:rid ~name:"request" ~start ~stop:t1 ~parent:(-1) ~req;
      (tk, rid)

let traced_await sys trace tk rid ~start =
  match trace with
  | None -> sys.await tk
  | Some sp ->
      let t0 = Clock.now () in
      let reply = sys.await tk in
      let t1 = Clock.now () in
      let req = sys.ticket_id tk in
      Spans.record sp ~id:(Spans.fresh_id sp) ~name:"serve.await" ~start:t0
        ~stop:t1 ~parent:rid ~req;
      Spans.record sp ~id:rid ~name:"request" ~start ~stop:t1 ~parent:(-1) ~req;
      reply

let cycle distinct =
  let k = ref 0 in
  fun () ->
    let i = !k mod distinct in
    incr k;
    i

(* Every reply outside the timed window is checked as it arrives.  Inside
   it, an error counts at once, but a reply is only held (the latest one
   per request index) and checked when the window has closed, so the
   oracle's cost — a walk over the whole output — is not measured as the
   program's. *)
let closed ?trace sys ~depth ~warmup_s ~seconds ~next =
  let inflight = Queue.create () in
  let attempted = ref 0 and failed = ref 0 in
  let held = Hashtbl.create 16 in
  let send () =
    let i = next () in
    incr attempted;
    let sent = Clock.now () in
    match traced_submit sys trace i ~start:sent with
    | Some tk, rid -> Queue.add (i, sent, tk, rid) inflight
    | None, _ -> incr failed
  in
  (* Await the oldest; returns when it was sent and when its reply came,
     or [None] when nothing is in flight. *)
  let receive ~timed =
    match Queue.take_opt inflight with
    | None -> None
    | Some (i, sent, tk, rid) ->
        let reply = traced_await sys trace tk rid ~start:sent in
        let t = Clock.now () in
        if not (sys.served reply) then incr failed
        else if timed then Hashtbl.replace held i reply
        else if not (sys.check i reply) then incr failed;
        Some (sent, t)
  in
  for _ = 1 to depth do
    send ()
  done;
  let t_warm = Clock.now () in
  while Clock.now () -. t_warm < warmup_s do
    ignore (receive ~timed:false);
    send ()
  done;
  let lat = Stats.buf () in
  let t0 = Clock.now () in
  let t_end = ref t0 in
  while !t_end -. t0 < seconds do
    (match receive ~timed:true with
    | Some (sent, t) -> Stats.push lat (t -. sent)
    | None -> ());
    t_end := Clock.now ();
    send ()
  done;
  while Option.is_some (receive ~timed:false) do
    ()
  done;
  Hashtbl.iter (fun i reply -> if not (sys.check i reply) then incr failed) held;
  {
    latency = Stats.contents lat;
    span = !t_end -. t0;
    attempted = !attempted;
    failed = !failed;
  }
