(* Serving quickstart: compile a workload into a session once, submit a
   request with a deadline, await its reply, and see a request of
   another shape refused at submit.

   Run with: dune exec examples/serve_quickstart.exe *)

open Functs

let () =
  (* Resolve the FUNCTS_* environment overlay once, apply it process-wide.
     A malformed variable is Error (Invalid_config …), never a silent
     fallback. *)
  let config = Result.get_ok (Functs.init ()) in
  let w = Result.get_ok (Functs.find_workload "lstm") in
  let batch = w.Workload.default_batch and seq = w.Workload.default_seq in
  (* Functionalize + compile once, at this batch and sequence length; the
     session owns a dispatcher and serves that one signature. *)
  match Functs.compile ~config ~batch ~seq w with
  | Error e -> prerr_endline (Error.to_string e)
  | Ok session ->
      let args = w.Workload.inputs ~batch ~seq in
      (match Session.submit session (Session.input ~deadline_us:50_000.0 args) with
      | Error Error.Overloaded -> () (* bounded queue pushed back; retry *)
      | Error e -> prerr_endline (Error.to_string e)
      | Ok ticket -> (
          match Session.await ticket with
          | Ok outputs ->
              Printf.printf "served: %d outputs\n" (List.length outputs)
          | Error Error.Deadline_exceeded -> () (* `Shed policy only *)
          | Error e -> prerr_endline (Error.to_string e)));
      (* Another sequence length is another program: the session rejects
         it before queueing anything.  Serve it from a session created at
         that length. *)
      (match
         Session.submit session
           (Session.input (w.Workload.inputs ~batch ~seq:(2 * seq)))
       with
      | Error e -> Printf.printf "rejected: %s\n" (Error.to_string e)
      | Ok _ -> prerr_endline "a request of another shape was accepted");
      Session.close session
