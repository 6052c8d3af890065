type phase = Begin | End | Instant | Flow_start | Flow_finish

type event = {
  ev_name : string;
  ev_phase : phase;
  ev_ts : float;
  ev_tid : int;
  ev_id : int;
  ev_args : (string * string) list;
}

let nil_event =
  {
    ev_name = "";
    ev_phase = Instant;
    ev_ts = 0.;
    ev_tid = 0;
    ev_id = 0;
    ev_args = [];
  }

(* The enabled flag is the only state the disabled path touches: one ref
   read, then straight to the traced thunk. *)
let on = ref false
let enabled () = !on

let epoch = Unix.gettimeofday ()
let now_us () = 1e6 *. (Unix.gettimeofday () -. epoch)

let default_capacity = 65536

(* Ring state: [count] is the total emitted since the last clear; the
   write cursor is [count mod cap].  Worker domains and the threads of
   one domain may emit concurrently, so writes take [lock] — tracing is
   opt-in, the disabled hot path never sees the mutex.  The ring is
   allocated when tracing starts ({!enable}, or {!set_capacity} while
   on) and stays empty until then: a [cap]-slot array that every major
   GC marks is a real cost to a process that never traces. *)
let lock = Mutex.create ()
let cap = ref default_capacity
let buf = ref [||]
let count = ref 0

(* Span depth per thread, under [lock]: a thread appears only while it
   is inside a span.  Keyed by thread id, not by domain, so a session's
   dispatcher thread and the caller thread on the same domain nest
   independently. *)
let depths : (int, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let thread_id () = Thread.id (Thread.self ())

let nest tid by =
  match Option.value (Hashtbl.find_opt depths tid) ~default:0 + by with
  | 0 -> Hashtbl.remove depths tid
  | d -> Hashtbl.replace depths tid d

let emit ?(id = 0) ev_name ev_phase ev_args =
  let tid = thread_id () in
  let ev =
    { ev_name; ev_phase; ev_ts = now_us (); ev_tid = tid; ev_id = id; ev_args }
  in
  locked (fun () ->
      let b = !buf in
      (* empty only when tracing stopped and the ring was resized since
         this emit read [on] *)
      if Array.length b > 0 then begin
        b.(!count mod Array.length b) <- ev;
        incr count
      end;
      match ev_phase with
      | Begin -> nest tid 1
      | End -> nest tid (-1)
      | Instant | Flow_start | Flow_finish -> ())

let depth () =
  let tid = thread_id () in
  locked (fun () -> Option.value (Hashtbl.find_opt depths tid) ~default:0)

let enable () =
  locked (fun () ->
      if Array.length !buf = 0 then buf := Array.make !cap nil_event;
      on := true)

let disable () = on := false

let span_traced name args f =
  emit name Begin args;
  Fun.protect ~finally:(fun () -> emit name End []) f

let span name f = if !on then span_traced name [] f else f ()

let span_args name ~args f =
  if !on then span_traced name (args ()) f else f ()

let instant ?(args = []) name = if !on then emit name Instant args

(* Flow events pair across threads by (name, id): the "s" arrow tail
   binds to the duration span enclosing it on the emitting track, the
   "f" head (bp:"e") to the enclosing span where the work resumed. *)
let flow_start ?(args = []) name ~id = if !on then emit ~id name Flow_start args
let flow_finish ?(args = []) name ~id = if !on then emit ~id name Flow_finish args

let capacity () = !cap

let set_capacity c =
  let c = max 16 c in
  locked (fun () ->
      cap := c;
      buf := if !on then Array.make c nil_event else [||];
      count := 0)

let clear () =
  locked (fun () ->
      Array.fill !buf 0 (Array.length !buf) nil_event;
      count := 0)

let emitted () = !count
let dropped () = max 0 (!count - !cap)

let events () =
  locked (fun () ->
      let b = !buf in
      let cap = Array.length b in
      let n = min !count cap in
      let start = if !count <= cap then 0 else !count mod cap in
      List.init n (fun i -> b.((start + i) mod cap)))

(* --- Chrome trace-event export --- *)

let phase_letter = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Flow_start -> "s"
  | Flow_finish -> "f"

let to_chrome () =
  let evs = events () in
  let b = Buffer.create (4096 + (List.length evs * 96)) in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"functs\",\"ph\":\"%s\",\"ts\":%.3f,\
            \"pid\":1,\"tid\":%d"
           (Json.escape ev.ev_name)
           (phase_letter ev.ev_phase)
           ev.ev_ts ev.ev_tid);
      (match ev.ev_phase with
      | Instant -> Buffer.add_string b ",\"s\":\"t\""
      | Flow_start -> Buffer.add_string b (Printf.sprintf ",\"id\":%d" ev.ev_id)
      | Flow_finish ->
          Buffer.add_string b
            (Printf.sprintf ",\"id\":%d,\"bp\":\"e\"" ev.ev_id)
      | Begin | End -> ());
      (match ev.ev_args with
      | [] -> ()
      | args ->
          Buffer.add_string b ",\"args\":{";
          List.iteri
            (fun j (k, v) ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b
                (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
            args;
          Buffer.add_char b '}');
      Buffer.add_char b '}')
    evs;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome ()))
