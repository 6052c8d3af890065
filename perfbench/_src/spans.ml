(* In-memory spans for the traced run, recorded from the benchmark's side
   of each call into the program: name, start, end, the span that caused
   it, and the request it belongs to.  Nothing is written until {!write}
   at the end of the run, so recording costs two clock reads and a list
   push.  Single-threaded, like the load generator. *)

type span = {
  id : int;
  name : string;
  start : float;  (** {!Clock.now} seconds *)
  stop : float;
  parent : int;  (** -1 at the root *)
  req : int;  (** the program's request id, -1 outside a request *)
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
}

let create () = { spans = []; next = 0 }

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let record t ~id ~name ~start ~stop ~parent ~req =
  t.spans <- { id; name; start; stop; parent; req } :: t.spans

(* A layer call, made at the top level of the run. *)
let with_span t name f =
  let id = fresh_id t in
  let start = Clock.now () in
  Fun.protect
    ~finally:(fun () -> record t ~id ~name ~start ~stop:(Clock.now ()) ~parent:(-1) ~req:(-1))
    f

let spans t = List.rev t.spans

let to_json t =
  let open Functs.Json in
  let int n = Num (float_of_int n) in
  Arr
    (List.map
       (fun s ->
         Obj
           [
             ("id", int s.id);
             ("name", Str s.name);
             ("start_us", Num (Float.round (1e6 *. s.start)));
             ("end_us", Num (Float.round (1e6 *. s.stop)));
             ("parent", int s.parent);
             ("req", int s.req);
           ])
       (spans t))

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Functs.Json.to_string (to_json t)))
