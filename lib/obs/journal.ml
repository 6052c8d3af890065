type kind =
  | Tuner_sample
  | Tuner_pin
  | Tuner_flip
  | Tuner_expire
  | Jit_demote
  | Jit_arm
  | Cache_evict
  | Deadline_degrade

let kind_name = function
  | Tuner_sample -> "tuner.sample"
  | Tuner_pin -> "tuner.pin"
  | Tuner_flip -> "tuner.flip"
  | Tuner_expire -> "tuner.expire"
  | Jit_demote -> "jit.demote"
  | Jit_arm -> "jit.arm"
  | Cache_evict -> "cache.evict"
  | Deadline_degrade -> "deadline.degrade"

type entry = {
  j_ts : float;
  j_kind : kind;
  j_site : string;
  j_id : int;
  j_arm : string;
  j_detail : string;
  j_value : float;
}

let nil_entry =
  {
    j_ts = 0.;
    j_kind = Tuner_sample;
    j_site = "";
    j_id = -1;
    j_arm = "";
    j_detail = "";
    j_value = 0.;
  }

(* Decisions are rare (a pin every few thousand launches, an eviction
   per cache overflow), so a mutex-guarded ring is fine; what must stay
   cheap is the *disabled* record — one bool-ref read, no allocation —
   and the guard at call sites that would otherwise build detail
   strings. *)
let on = ref true
let enabled () = !on
let enable () = on := true
let disable () = on := false

let epoch = Unix.gettimeofday ()
let now_us () = 1e6 *. (Unix.gettimeofday () -. epoch)

let default_capacity = 4096
let lock = Mutex.create ()
let buf = ref (Array.make default_capacity nil_entry)
let count = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let record ?(id = -1) ?(arm = "") ?(detail = "") ?(value = 0.) kind site =
  if !on then
    locked (fun () ->
        let b = !buf in
        (* stamped under the lock, so ring order is timestamp order even
           when several domains record at once *)
        b.(!count mod Array.length b) <-
          {
            j_ts = now_us ();
            j_kind = kind;
            j_site = site;
            j_id = id;
            j_arm = arm;
            j_detail = detail;
            j_value = value;
          };
        incr count)

let capacity () = Array.length !buf

let set_capacity c =
  let c = max 16 c in
  locked (fun () ->
      buf := Array.make c nil_entry;
      count := 0)

let clear () =
  locked (fun () ->
      Array.fill !buf 0 (Array.length !buf) nil_entry;
      count := 0)

let recorded () = !count
let dropped () = max 0 (!count - Array.length !buf)

let entries () =
  locked (fun () ->
      let b = !buf in
      let cap = Array.length b in
      let n = min !count cap in
      let start = if !count <= cap then 0 else !count mod cap in
      List.init n (fun i -> b.((start + i) mod cap)))

let entry_to_text e =
  let b = Buffer.create 96 in
  Buffer.add_string b
    (Printf.sprintf "%10.0fus %-17s %s" e.j_ts (kind_name e.j_kind) e.j_site);
  if e.j_id >= 0 then Buffer.add_string b (Printf.sprintf "#%d" e.j_id);
  if e.j_arm <> "" then Buffer.add_string b (Printf.sprintf " arm=%s" e.j_arm);
  if e.j_value <> 0. then
    Buffer.add_string b (Printf.sprintf " value=%g" e.j_value);
  if e.j_detail <> "" then Buffer.add_string b (" " ^ e.j_detail);
  Buffer.contents b

let to_text () = String.concat "\n" (List.map entry_to_text (entries ()))
