(* The serving layer, JIT off, every output bitwise the interpreter's
   ([Equiv.bitwise]): multi-domain stress (no lost / duplicated /
   misrouted responses), batched dispatch
   (any arrival mix decomposes into buckets whose per-request outputs are
   bitwise-equal to batch-1 interpreter runs, including partial final
   buckets and mid-bucket deadline expiry, on lstm and on yolact, whose
   outputs hold exact zeros), the scatter buffers (replies held across
   later buckets, and the buffer a program's output aliases is dropped),
   the steady-state major-heap budget of a 16-bucket, the ticket API
   (poll / cancel), shard scale-out, deadline expiry under both
   degradation policies, backpressure on a size-1 queue, requests of
   another signature rejected at submit, a cold create that runs no
   engine (every batching workload), every batching workload's bucket
   list, the dispatcher's placement (journaled, and a
   session made on a spawned domain that has since finished still
   serves and closes), and the strict Config.of_env validation.  The
   suite also runs pinned to one CPU (test/dune), where create puts the
   dispatcher on the caller's domain. *)

open Functs
module Journal = Functs_obs.Journal

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lstm () = Result.get_ok (Functs.find_workload "lstm")

(* Cheap scales so the interpreter reference stays fast. *)
let batch = 1
let seq = 4

let base_args () =
  let w = lstm () in
  w.Workload.inputs ~batch ~seq

(* Deterministically distinct inputs per producer, so a response routed
   to the wrong ticket shows up as a value mismatch. *)
let perturbed_args salt =
  List.map
    (function
      | Value.Tensor t ->
          let t = Tensor.clone t in
          Tensor.mapi_inplace t (fun _ x ->
              x +. (0.01 *. float_of_int (salt + 1)));
          Value.Tensor t
      | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)
    (base_args ())

let clone_args =
  List.map (function
    | Value.Tensor t -> Value.Tensor (Tensor.clone t)
    | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)

let expected_for ?(w = lstm ()) args =
  Eval.run (Workload.graph w ~batch ~seq) (clone_args args)

let with_session ?(config = Config.default) ?(w = lstm ()) f =
  match Functs.compile ~config ~batch ~seq w with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok s -> Fun.protect ~finally:(fun () -> Session.close s) (fun () -> f s)

let submit_ok s input =
  match Session.submit s input with
  | Ok tk -> tk
  | Error e -> Alcotest.fail (Error.to_string e)

(* --- stress: N producer domains, M submits each --- *)

let producers = 4
let submits = 64
let stress_deadline_s = 30.0

let test_stress () =
  let config = { Config.default with Config.domains = 2; max_batch = 4 } in
  with_session ~config (fun s ->
      let inputs = Array.init producers perturbed_args in
      let expected = Array.map expected_for inputs in
      let reqs = Array.map (fun args -> Session.input args) inputs in
      (* Each producer aims for [submits] accepted requests but runs
         against a deadline, not a fixed retry budget: when the queue is
         full it backs off and retries until either the submit is
         accepted or the clock runs out.  Every accepted ticket is
         awaited, so the achieved count is exact and the assertions
         below compare the session's books against what was actually
         accepted — never against a target the dispatcher may have been
         too slow to reach. *)
      let worker p () =
        let deadline = Unix.gettimeofday () +. stress_deadline_s in
        let failures = ref 0 and achieved = ref 0 in
        (try
           for _ = 1 to submits do
             let rec accepted () =
               match Session.submit s reqs.(p) with
               | Ok tk -> tk
               | Error Error.Overloaded ->
                   if Unix.gettimeofday () > deadline then raise Exit;
                   Domain.cpu_relax ();
                   accepted ()
               | Error e -> Alcotest.fail (Error.to_string e)
             in
             let tk = accepted () in
             incr achieved;
             match Session.await tk with
             | Ok got -> if not (Equiv.bitwise expected.(p) got) then incr failures
             | Error e -> Alcotest.fail (Error.to_string e)
           done
         with Exit -> ());
        (!failures, !achieved)
      in
      let domains = List.init producers (fun p -> Domain.spawn (worker p)) in
      let failures, accepted =
        List.fold_left
          (fun (f, a) d ->
            let f', a' = Domain.join d in
            (f + f', a + a'))
          (0, 0) domains
      in
      check_int "every response carries its own producer's outputs" 0 failures;
      check "every producer made progress before the deadline" true
        (accepted >= producers);
      let st = Session.stats s in
      check_int "no lost submissions" accepted st.Session.submitted;
      check_int "every request completed exactly once" accepted
        st.Session.completed;
      check_int "no engine-failure sheds" 0 st.Session.shed;
      check "micro-batching engaged (fewer batches than requests)" true
        (st.Session.batches <= accepted);
      check "queue depth was bounded by capacity" true
        (st.Session.max_queue_depth <= config.Config.queue_capacity))

(* --- batched dispatch: the bucket-decomposition property --- *)

(* A request that can share a bucket with others: the batched-axis
   tensors are perturbed per salt, the shared (None-axis) arguments are
   the exact values from [shared] — bucketing requires physical
   equality of shared args, which is what real callers get by reusing
   one weight set. *)
let batched_variant ?(w = lstm ()) shared salt =
  let axes =
    match w.Workload.batching with
    | Some b -> b.Workload.input_axes
    | None -> Alcotest.failf "%s must declare batching" w.Workload.name
  in
  List.map2
    (fun axis v ->
      match (axis, v) with
      | Some _, Value.Tensor t ->
          let t = Tensor.clone t in
          Tensor.mapi_inplace t (fun _ x ->
              x +. (0.013 *. float_of_int (salt + 1)));
          Value.Tensor t
      | _, v -> v)
    axes shared

(* Submit same-shape requests while the dispatcher is paused (so the
   whole mix is queued and decomposes greedily on resume); returns each
   request's arguments with its outputs. *)
let serve_paused s reqs =
  Session.pause s;
  let tickets =
    List.map (fun args -> (args, submit_ok s (Session.input args))) reqs
  in
  Session.resume s;
  List.map
    (fun (args, tk) ->
      match Session.await tk with
      | Ok got -> (args, got)
      | Error e -> Alcotest.fail (Error.to_string e))
    tickets

(* [n] distinct requests. *)
let serve_round ?w s shared ~salt0 n =
  serve_paused s (List.init n (fun i -> batched_variant ?w shared (salt0 + i)))

(* Every response is bitwise-equal to its own batch-1 interpreter run. *)
let bucket_round ?w s shared ~salt0 n =
  List.iter
    (fun (args, got) ->
      check "bucketed response is bitwise-equal to its solo run" true
        (Equiv.bitwise (expected_for ?w args) got))
    (serve_round ?w s shared ~salt0 n)

let test_bucket_equivalence () =
  with_session (fun s ->
      check "the session compiled the configured buckets" true
        (Session.bucket_sizes s = [ 1; 4; 16 ]);
      let shared = base_args () in
      let c0 = Compiler_profile.cache_snapshot () in
      (* arrival mixes around every bucket boundary: singles, an exact
         bucket, partial final buckets, and a mix that uses 16+4+singles *)
      List.iteri
        (fun round n -> bucket_round s shared ~salt0:(round * 31) n)
        [ 1; 3; 4; 7; 16; 23 ];
      (* every bucket engine was compiled at create and is held by the
         dispatcher: native-shape traffic never probes the compile cache *)
      let c1 = Compiler_profile.cache_snapshot () in
      check_int "warm bucketed traffic never recompiles" 0
        (c1.Compiler_profile.cache_misses - c0.Compiler_profile.cache_misses);
      check_int "warm bucketed traffic never probes the compile cache" 0
        (c1.Compiler_profile.cache_hits - c0.Compiler_profile.cache_hits);
      let st = Session.stats s in
      check "batched engine runs happened" true (st.Session.batched_runs >= 4);
      check "the 4-bucket was used" true
        (List.mem_assoc 4 st.Session.bucket_runs);
      check "the 16-bucket was used" true
        (List.mem_assoc 16 st.Session.bucket_runs);
      check "partial buckets fell through to singles" true
        (List.mem_assoc 1 st.Session.bucket_runs))

(* lstm produces no exact zero, so a fault that flips the sign of a zero
   cannot show on it.  yolact's crop fills border rows with +0.0, and
   [Equiv.bitwise] tells +0.0 from -0.0. *)
let test_bucket_equivalence_zeros () =
  let w = Result.get_ok (Functs.find_workload "yolact") in
  with_session ~w (fun s ->
      let shared = w.Workload.inputs ~batch ~seq in
      let has_pos_zero =
        List.exists (function
          | Value.Tensor t ->
              Array.exists
                (fun x -> Int64.equal (Int64.bits_of_float x) 0L)
                (Tensor.to_flat_array t)
          | Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _ -> false)
      in
      check "the reference outputs hold +0.0" true
        (has_pos_zero (expected_for ~w shared));
      List.iteri
        (fun round n -> bucket_round ~w s shared ~salt0:(round * 31) n)
        [ 7; 16 ];
      let st = Session.stats s in
      check "every bucket size was used" true
        (List.for_all
           (fun k -> List.mem_assoc k st.Session.bucket_runs)
           [ 1; 4; 16 ]))

(* --- scatter buffers: reuse across buckets, and the alias rule --- *)

(* Replies are views of a bucket's outputs, and the next run of the
   bucket overwrites the shard's scatter buffers.  Hold every reply of
   three consecutive 16-buckets and check them only at the end, so a
   reply that a later batch wrote into cannot hide. *)
let test_held_replies () =
  with_session (fun s ->
      let shared = base_args () in
      let rounds =
        List.init 3 (fun r -> serve_round s shared ~salt0:(200 + (16 * r)) 16)
      in
      (match List.hd rounds with
      | (_, Value.Tensor first :: _) :: rest ->
          check "a bucket's replies are views of one batch output" true
            (List.for_all
               (function
                 | _, Value.Tensor t :: _ -> Tensor.same_storage t first
                 | _ -> false)
               rest)
      | _ -> Alcotest.fail "lstm replies start with a tensor");
      List.iter
        (List.iter (fun (args, got) ->
             check "a held reply still equals its solo run" true
               (Equiv.bitwise (expected_for args) got)))
        rounds;
      check "three 16-buckets ran" true
        (List.assoc_opt 16 (Session.stats s).Session.bucket_runs = Some 3))

(* A batched program whose output is its batched input, or a view of
   it: the bucket's output then shares storage with the scatter
   buffer. *)
let echo ~view =
  let program ~batch ~seq =
    ignore seq;
    let open Ast in
    let x = var "x" in
    {
      name = "echo";
      params = [ tensor_param "x" ];
      body =
        [
          return_
            [
              (if view then Subscript (x, [ Range (i 0, i batch); Range (i 2, i 6) ])
               else x);
            ];
        ];
    }
  in
  {
    Workload.name = "echo";
    display = "Echo";
    kind = Workload.Cv;
    default_batch = 1;
    default_seq = 1;
    program;
    inputs =
      (fun ~batch ~seq ->
        ignore seq;
        [ Workload.rand_tensor (Workload.seeded 11) [| batch; 8 |] ]);
    batching = Some { Workload.input_axes = [ Some 0 ]; output_axes = [ Some 0 ] };
  }

(* Two consecutive full 4-buckets: the first bucket's replies must keep
   their values after the second ran, which holds only because the
   aliased buffer was dropped rather than reused — so the two buckets'
   replies live in different storage. *)
let test_aliased_buffer_dropped () =
  List.iter
    (fun view ->
      let w = echo ~view in
      with_session ~w (fun s ->
          let shared = w.Workload.inputs ~batch ~seq in
          let first = serve_round ~w s shared ~salt0:0 4 in
          let second = serve_round ~w s shared ~salt0:10 4 in
          List.iter
            (fun (args, got) ->
              check "a reply aliasing its input survives the next bucket" true
                (Equiv.bitwise (expected_for ~w args) got))
            (first @ second);
          let storage_of = function
            | _, [ Value.Tensor t ] -> t
            | _ -> Alcotest.fail "echo returns one tensor"
          in
          check "the aliased scatter buffer was not reused" false
            (Tensor.same_storage
               (storage_of (List.hd first))
               (storage_of (List.hd second)));
          check "both rounds ran as 4-buckets" true
            (List.assoc_opt 4 (Session.stats s).Session.bucket_runs = Some 2)))
    [ false; true ]

(* A batched program that selects column [k] of its input: a request
   whose [k] is out of range makes the engine itself raise
   [Invalid_argument], at any bucket size. *)
let pick =
  let program ~batch ~seq =
    ignore seq;
    let open Ast in
    {
      name = "pick";
      params = [ tensor_param "x"; int_param "k" ];
      body =
        [
          return_
            [
              Binop
                ( Scalar.Add,
                  Subscript (var "x", [ Range (i 0, i batch); At (var "k") ]),
                  Float_lit 1.0 );
            ];
        ];
    }
  in
  {
    Workload.name = "pick";
    display = "Pick";
    kind = Workload.Cv;
    default_batch = 1;
    default_seq = 1;
    program;
    inputs =
      (fun ~batch ~seq ->
        ignore seq;
        [ Workload.rand_tensor (Workload.seeded 12) [| batch; 8 |]; Value.Int 3 ]);
    batching =
      Some { Workload.input_axes = [ Some 0; None ]; output_axes = [ Some 0 ] };
  }

(* An engine that raises inside a bucket fails that bucket's requests
   only: batching stays on, so the next full 4-bucket runs batched. *)
let test_engine_raise_keeps_batching () =
  let w = pick in
  with_session ~w (fun s ->
      let native = w.Workload.inputs ~batch ~seq in
      let bad = [ List.hd native; Value.Int 20 ] in
      let fours () =
        Option.value ~default:0
          (List.assoc_opt 4 (Session.stats s).Session.bucket_runs)
      in
      (* a group served as singles counts as bucket-1 runs, so a
         4-bucket run is a batched one; [batched_runs] checks both *)
      let batched () = (Session.stats s).Session.batched_runs in
      let f0 = fours () and b0 = batched () in
      Session.pause s;
      let tickets =
        List.init 4 (fun salt ->
            submit_ok s (Session.input (batched_variant ~w bad salt)))
      in
      Session.resume s;
      List.iter
        (fun tk ->
          check "an out-of-range index fails its request" true
            (Result.is_error (Session.await tk)))
        tickets;
      check "the failing requests ran as one 4-bucket" true
        (fours () = f0 + 1 && batched () = b0 + 1);
      bucket_round ~w s native ~salt0:40 4;
      check "a native 4-bucket still runs batched" true
        (fours () = f0 + 2 && batched () = b0 + 2))

(* --- the major-heap budget of a steady-state 16-bucket ---

   lstm at its default scale (seq 64): each request's [x] is 32768
   words, its [out] 8192.  Concatenating [x] into a fresh batch buffer
   and copying every reply out cost about 58k major words per request;
   with reused scatter buffers and view replies what is left is the
   engine's own outputs and intermediates, about 16.7k (JIT off, one
   lane).

   Under OCaml 5.1, [Gc.quick_stat] adds the calling domain's live
   counters ([minor_words], [promoted_words], [major_words]) to every
   other domain's as sampled at its last minor collection; the
   collection counts are global.  A minor collection stops every domain
   and samples its counters, so reading after [Gc.minor ()] includes
   everything the dispatcher allocated, on whichever domain it runs. *)
let major_words_ceiling = 20_000.

let test_major_words_budget () =
  let w = lstm () in
  let seq = w.Workload.default_seq in
  let config = { Config.default with Config.domains = 1 } in
  match Functs.compile ~config ~batch ~seq w with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok s ->
      Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
      (* built before the measured window: each [x] is 32768 words *)
      let shared = w.Workload.inputs ~batch ~seq in
      let reqs = List.init 16 (batched_variant shared) in
      let round () = ignore (serve_paused s reqs) in
      (* the first runs allocate the bucket's scatter buffers *)
      for _ = 1 to 3 do
        round ()
      done;
      let rounds = 16 in
      Gc.minor ();
      let g0 = Gc.quick_stat () in
      for _ = 1 to rounds do
        round ()
      done;
      Gc.minor ();
      let g1 = Gc.quick_stat () in
      let per_request =
        (g1.Gc.major_words -. g0.Gc.major_words) /. float_of_int (16 * rounds)
      in
      check_int "every round ran as one 16-bucket" (rounds + 3)
        (Option.value ~default:0
           (List.assoc_opt 16 (Session.stats s).Session.bucket_runs));
      if per_request > major_words_ceiling then
        Alcotest.failf "%.0f major words per request, over the %.0f ceiling"
          per_request major_words_ceiling

(* A member expiring mid-bucket degrades per policy while the rest of
   the mix still buckets — and every response (degraded included) still
   carries that request's own interpreter outputs. *)
let test_bucket_mid_expiry () =
  with_session (fun s ->
      let shared = base_args () in
      Session.pause s;
      let tickets =
        List.init 5 (fun i ->
            let args = batched_variant shared (100 + i) in
            let deadline_us = if i = 2 then Some 1.0 else None in
            (args, submit_ok s (Session.input ?deadline_us args)))
      in
      Unix.sleepf 0.01;
      Session.resume s;
      List.iter
        (fun (args, tk) ->
          match Session.await tk with
          | Ok got ->
              check "expiry in the mix never corrupts a response" true
                (Equiv.bitwise (expected_for args) got)
          | Error e -> Alcotest.fail (Error.to_string e))
        tickets;
      let st = Session.stats s in
      check "the expired member was counted" true
        (st.Session.deadline_expired >= 1);
      check "the expired member degraded to the interpreter" true
        (st.Session.interp_fallbacks >= 1);
      check "the survivors still ran batched" true
        (st.Session.batched_runs >= 1))

(* --- the ticket API: poll and cancel --- *)

let test_poll_cancel () =
  with_session (fun s ->
      Session.pause s;
      let doomed = submit_ok s (Session.input (perturbed_args 3)) in
      let kept_args = perturbed_args 4 in
      let kept = submit_ok s (Session.input kept_args) in
      check "poll is None while queued" true (Session.poll doomed = None);
      check "cancel wins before dispatch" true (Session.cancel doomed);
      check "cancel is idempotent-false after the outcome is decided" false
        (Session.cancel doomed);
      Session.resume s;
      (match Session.await doomed with
      | Error Error.Cancelled -> ()
      | Ok _ -> Alcotest.fail "a cancelled ticket must not be served"
      | Error e ->
          Alcotest.failf "expected Cancelled, got %s" (Error.to_string e));
      (match Session.await kept with
      | Ok got ->
          check "the neighbour of a cancelled ticket is served" true
            (Equiv.bitwise (expected_for kept_args) got)
      | Error e -> Alcotest.fail (Error.to_string e));
      check "cancel after completion is refused" false (Session.cancel kept);
      (match Session.poll kept with
      | Some (Ok _) -> ()
      | Some (Error e) -> Alcotest.fail (Error.to_string e)
      | None -> Alcotest.fail "poll must see the completed outcome");
      let st = Session.stats s in
      check_int "exactly one cancellation" 1 st.Session.cancelled;
      check_int "books balance: submitted = completed + cancelled"
        st.Session.submitted
        (st.Session.completed + st.Session.cancelled))

(* --- shard scale-out under queue pressure --- *)

let test_shards () =
  let config =
    {
      Config.default with
      Config.max_batch = 1;
      batch_buckets = [ 1 ];
      shards = 2;
    }
  in
  with_session ~config (fun s ->
      let args = Array.init 32 (fun i -> perturbed_args i) in
      let expected = Array.map expected_for args in
      let tickets =
        Array.map (fun a -> submit_ok s (Session.input a)) args
      in
      Array.iteri
        (fun i tk ->
          match Session.await tk with
          | Ok got ->
              check "sharded dispatch routes every response correctly" true
                (Equiv.bitwise expected.(i) got)
          | Error e -> Alcotest.fail (Error.to_string e))
        tickets;
      let st = Session.stats s in
      check_int "queue pressure spun up the second shard" 2 st.Session.shards;
      check_int "no lost submissions across shards" 32 st.Session.submitted;
      check_int "every request completed exactly once" 32 st.Session.completed)

(* --- deadlines --- *)

(* Pause the dispatcher so the deadline is provably expired before
   dispatch, then resume and observe the configured policy. *)
let submit_expired s =
  Session.pause s;
  let tk = submit_ok s (Session.input ~deadline_us:1.0 (perturbed_args 7)) in
  Unix.sleepf 0.01;
  Session.resume s;
  tk

let test_deadline_interp_fallback () =
  with_session (fun s ->
      let tk = submit_expired s in
      (match Session.await tk with
      | Ok got ->
          check "fallback still returns the interpreter's outputs" true
            (Equiv.bitwise (expected_for (perturbed_args 7)) got)
      | Error e ->
          Alcotest.failf "expected a served fallback, got %s"
            (Error.to_string e));
      let st = Session.stats s in
      check "deadline expiry was counted" true (st.Session.deadline_expired >= 1);
      check "served through the interpreter" true
        (st.Session.interp_fallbacks >= 1);
      check_int "nothing shed" 0 st.Session.shed)

let test_deadline_shed () =
  let config = { Config.default with Config.policy = `Shed } in
  with_session ~config (fun s ->
      let tk = submit_expired s in
      (match Session.await tk with
      | Error Error.Deadline_exceeded -> ()
      | Ok _ -> Alcotest.fail "shed policy must not serve an expired request"
      | Error e ->
          Alcotest.failf "expected Deadline_exceeded, got %s"
            (Error.to_string e));
      let st = Session.stats s in
      check "deadline expiry was counted" true (st.Session.deadline_expired >= 1);
      check "the request was shed" true (st.Session.shed >= 1);
      check_int "no interpreter fallback under shed" 0
        st.Session.interp_fallbacks)

(* --- backpressure on a queue of size 1 --- *)

let test_overload () =
  let config = { Config.default with Config.queue_capacity = 1 } in
  with_session ~config (fun s ->
      Session.pause s;
      let first = submit_ok s (Session.input (perturbed_args 0)) in
      (match Session.submit s (Session.input (perturbed_args 1)) with
      | Error Error.Overloaded -> ()
      | Ok _ -> Alcotest.fail "second submit must bounce off the full queue"
      | Error e ->
          Alcotest.failf "expected Overloaded, got %s" (Error.to_string e));
      Session.resume s;
      (match Session.await first with
      | Ok got ->
          check "the queued request is still served correctly" true
            (Equiv.bitwise (expected_for (perturbed_args 0)) got)
      | Error e -> Alcotest.fail (Error.to_string e));
      let st = Session.stats s in
      check "overload was counted" true (st.Session.overloaded >= 1);
      check_int "queue depth never exceeded the bound" 1
        st.Session.max_queue_depth)

(* A closed session answers [Session_closed] to every submit, a request
   of another signature included. *)
let test_submit_after_close () =
  let s = Result.get_ok (Functs.compile ~batch ~seq (lstm ())) in
  Session.close s;
  List.iter
    (fun args ->
      match Session.submit s (Session.input args) with
      | Error Error.Session_closed -> ()
      | Ok _ -> Alcotest.fail "a closed session must refuse submits"
      | Error e ->
          Alcotest.failf "expected Session_closed, got %s" (Error.to_string e))
    [ base_args (); (lstm ()).Workload.inputs ~batch ~seq:(seq + 1) ]

(* --- a session serves the signature it compiled ---

   A request of another shape, arity or argument kind is refused by
   [submit] itself: nothing is queued, compiled or counted, and the
   message names both shapes or kinds.  Native requests on the same session are served as before. *)
let test_other_signature_rejected () =
  with_session (fun s ->
      let w = lstm () in
      let native = base_args () in
      let shape_of = function
        | Value.Tensor t ->
            Some (Shape_infer.to_string (Shape_infer.known (Tensor.shape t)))
        | Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _ -> None
      in
      let contains m sub =
        let n = String.length sub in
        let rec at i =
          i + n <= String.length m && (String.sub m i n = sub || at (i + 1))
        in
        at 0
      in
      let c_misses = Metrics.counter "jit.c.miss" in
      let c0 = Compiler_profile.cache_snapshot ()
      and j0 = Metrics.value c_misses
      and st0 = Session.stats s in
      List.iter
        (fun (what, args) ->
          match Session.submit s (Session.input args) with
          | Ok _ ->
              Alcotest.failf "%s: a request of another signature was accepted"
                what
          | Error (Error.Runtime_error m) -> (
              if List.length args = List.length native then
                (* the first argument that differs is named, with the shape
                   or kind it was compiled for *)
                match
                  List.find
                    (fun (a, b) -> a <> b)
                    (List.map2 (fun a b -> (shape_of a, shape_of b)) native args)
                with
                | Some want, Some got ->
                    check (what ^ ": the message names both shapes") true
                      (contains m want && contains m got)
                | _ ->
                    check (what ^ ": the message names both kinds") true
                      (contains m "argument 0" && contains m "Tensor"))
          | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e))
        [
          ("seq+1", w.Workload.inputs ~batch ~seq:(seq + 1));
          ("batch+1", w.Workload.inputs ~batch:(batch + 1) ~seq);
          ("a shorter seq", w.Workload.inputs ~batch ~seq:(seq - 1));
          ("one argument short", List.tl native);
          ("an int for argument 0", Value.Int 0 :: List.tl native);
          ("a float for argument 0", Value.Float 0. :: List.tl native);
        ];
      let c1 = Compiler_profile.cache_snapshot () in
      check_int "no compile-cache miss" c0.Compiler_profile.cache_misses
        c1.Compiler_profile.cache_misses;
      check_int "no compile-cache hit" c0.Compiler_profile.cache_hits
        c1.Compiler_profile.cache_hits;
      check_int "no C compile asked for" j0 (Metrics.value c_misses);
      let st1 = Session.stats s in
      check_int "nothing counted as submitted" st0.Session.submitted
        st1.Session.submitted;
      check_int "nothing served by the interpreter"
        st0.Session.interp_fallbacks st1.Session.interp_fallbacks;
      (* a refused request never reaches a bucket, so batching survives:
         a full 4-bucket of native requests still runs batched *)
      let fours () =
        Option.value ~default:0
          (List.assoc_opt 4 (Session.stats s).Session.bucket_runs)
      in
      let batched () = (Session.stats s).Session.batched_runs in
      let f0 = fours () and b0 = batched () in
      bucket_round s native ~salt0:500 5;
      check "a native 4-bucket still runs batched" true
        (fours () > f0 && batched () > b0))

(* --- warm submits never recompile --- *)

let test_warm_no_recompile () =
  with_session (fun s ->
      let args = base_args () in
      (match Session.run s args with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Error.to_string e));
      let c0 = Compiler_profile.cache_snapshot () in
      for _ = 1 to 8 do
        match Session.run s args with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Error.to_string e)
      done;
      let c1 = Compiler_profile.cache_snapshot () in
      check_int "warm submits never recompile" 0
        (c1.Compiler_profile.cache_misses - c0.Compiler_profile.cache_misses);
      check_int "warm submits never probe the compile cache" 0
        (c1.Compiler_profile.cache_hits - c0.Compiler_profile.cache_hits))

(* --- the dispatcher holds its engines: a cleared compile cache costs
   serving nothing --- *)

let test_clear_cache_no_rebuild () =
  (* batched buckets, and bucket-1-only serving (the workload's batching
     dropped because no bucket above 1 is configured) *)
  List.iter
    (fun config ->
      with_session ~config (fun s ->
          (* 23 requests: 16 + 4 + singles when batching is on *)
          let round () =
            List.map snd (serve_round s (base_args ()) ~salt0:0 23)
          in
          let first = round () in
          Engine.clear_cache ();
          let c0 = Compiler_profile.cache_snapshot () in
          let second = round () in
          let c1 = Compiler_profile.cache_snapshot () in
          check_int "no engine is rebuilt after clear_cache" 0
            (c1.Compiler_profile.cache_misses
           - c0.Compiler_profile.cache_misses);
          check "outputs are bitwise-equal to the first round's" true
            (List.for_all2 Equiv.bitwise first second)))
    [ Config.default; { Config.default with Config.batch_buckets = [ 1 ] } ]

(* --- create runs no engine --- *)

let exec_runs () = Metrics.value (Metrics.counter "exec.runs")

(* Every loop's arm is fixed when its engine is prepared, so a cold
   create (the compile cache cleared first) runs none of its engines;
   the first requests of every bucket size are then served bitwise as
   the interpreter computes them. *)
let test_create_runs_no_engine () =
  List.iter
    (fun (w : Workload.t) ->
      let name = w.Workload.name in
      Engine.clear_cache ();
      let r0 = exec_runs () in
      with_session ~w (fun s ->
          check_int (name ^ ": engine runs during create") 0
            (exec_runs () - r0);
          let shared = w.Workload.inputs ~batch ~seq in
          List.iteri
            (fun round n -> bucket_round ~w s shared ~salt0:(round * 17) n)
            [ 1; 4; 16 ];
          check (name ^ ": every bucket served") true
            (List.for_all
               (fun k -> List.mem_assoc k (Session.stats s).Session.bucket_runs)
               [ 1; 4; 16 ])))
    (List.filter
       (fun (w : Workload.t) -> Option.is_some w.Workload.batching)
       (Registry.all @ Registry.extensions))

(* Each loop site's arm is journaled once, with its rule, when its
   engine is prepared at create; serving records no loop decision, and
   nothing is sampled or expires.  This is what [functs why yolact]
   replays with the JIT off. *)
let test_loop_arms_journaled () =
  let w = Result.get_ok (Functs.find_workload "yolact") in
  let entries since =
    let skip = max 0 (since - Journal.dropped ()) in
    List.filteri (fun i _ -> i >= skip) (Journal.entries ())
  in
  let loop_site (e : Journal.entry) = e.Journal.j_site = "scheduler.loop" in
  let sampled (e : Journal.entry) =
    e.Journal.j_kind = Journal.Tuner_sample
    || e.Journal.j_kind = Journal.Tuner_expire
  in
  Engine.clear_cache ();
  let c0 = Journal.recorded () in
  with_session ~w (fun s ->
      let pins = List.filter loop_site (entries c0) in
      check "create journals yolact's loop sites" true (pins <> []);
      List.iter
        (fun (e : Journal.entry) ->
          check
            (Printf.sprintf "loop#%d: one batched pin by rule (%s %s)"
               e.Journal.j_id e.Journal.j_arm e.Journal.j_detail)
            true
            (e.Journal.j_kind = Journal.Tuner_pin
            && e.Journal.j_arm = "batched"
            && List.mem e.Journal.j_detail
                 [ "rule=vector-plan"; "rule=chunked-plan" ]))
        pins;
      let s0 = Journal.recorded () in
      let shared = w.Workload.inputs ~batch ~seq in
      List.iteri
        (fun round n -> bucket_round ~w s shared ~salt0:(round * 13) n)
        [ 1; 4; 16; 1 ];
      check "serving records no loop decision" false
        (List.exists loop_site (entries s0)));
  check "no tuner.sample or tuner.expire record" false
    (List.exists sampled (entries c0))

(* Bucket input shapes are derived from the base request's; a wrong
   derivation would drop a bucket silently (its compile or its output
   check fails, and create serves without it).  The expected lists are
   what bucket-shaped random inputs gave, at each workload's own scale. *)
let test_every_batching_workload_buckets () =
  let expected =
    [
      ("yolov3", [ 1; 4; 16 ]);
      ("ssd", [ 1; 4; 16 ]);
      ("yolact", [ 1; 4; 16 ]);
      ("fcos", [ 1; 4; 16 ]);
      ("nasrnn", [ 1; 4; 16 ]);
      ("lstm", [ 1; 4; 16 ]);
      ("seq2seq", [ 1; 4; 16 ]);
    ]
  in
  let batching =
    List.filter
      (fun (w : Workload.t) -> Option.is_some w.Workload.batching)
      (Registry.all @ Registry.extensions)
  in
  Alcotest.(check (list string))
    "every batching workload has an expected bucket list"
    (List.sort compare (List.map fst expected))
    (List.sort compare (List.map (fun (w : Workload.t) -> w.Workload.name) batching));
  List.iter
    (fun (w : Workload.t) ->
      match Session.create w with
      | Error e -> Alcotest.fail (Error.to_string e)
      | Ok s ->
          Fun.protect
            ~finally:(fun () -> Session.close s)
            (fun () ->
              Alcotest.(check (list int))
                (w.Workload.name ^ " buckets")
                (List.assoc w.Workload.name expected)
                (Session.bucket_sizes s)))
    batching

(* --- where the dispatcher runs --- *)

(* Create's rule: a thread on the caller's domain when one core is
   usable and the caller is the main domain, a domain of its own
   otherwise.  Each create journals its choice at [serve.dispatcher]. *)
let test_dispatcher_placement () =
  let since = Journal.recorded () in
  with_session ignore;
  let skip = max 0 (since - Journal.dropped ()) in
  let placements =
    List.filteri (fun i _ -> i >= skip) (Journal.entries ())
    |> List.filter (fun e -> e.Journal.j_site = "serve.dispatcher")
  in
  let cores = Domain.recommended_domain_count () in
  let want =
    if cores = 1 && Domain.is_main_domain () then "thread" else "domain"
  in
  match placements with
  | [ e ] ->
      Alcotest.(check string) "placement follows the rule" want e.Journal.j_arm;
      Alcotest.(check string)
        "detail names the usable cores"
        (Printf.sprintf "cores=%d" cores)
        e.Journal.j_detail
  | l -> Alcotest.failf "%d serve.dispatcher records, expected 1" (List.length l)

(* Fail the whole run if [f] has not returned within [seconds]: a hang
   must not stall the suite.  The message goes to the process's own
   stderr, duplicated before Alcotest redirects it into the test's log,
   since the exit skips Alcotest's report. *)
let console = Unix.out_channel_of_descr (Unix.dup Unix.stderr)

let with_watchdog ~seconds what f =
  let finished = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. seconds in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.05
        done;
        if not (Atomic.get finished) then begin
          Printf.fprintf console "%s: no return within %.0f s\n%!" what seconds;
          Unix._exit 1
        end)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Thread.join watchdog)
    f

(* A session made inside [Domain.spawn] and handed out through
   [Domain.join]: the spawned domain must be able to finish (a
   dispatcher thread would keep it alive), and the parent serves and
   closes the session. *)
let test_finished_domain_session () =
  with_watchdog ~seconds:60. "session made on a finished domain" (fun () ->
      let s =
        Domain.join
          (Domain.spawn (fun () ->
               match Functs.compile ~batch ~seq (lstm ()) with
               | Ok s -> s
               | Error e -> failwith (Error.to_string e)))
      in
      Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
      let args = perturbed_args 3 in
      match Session.run s (clone_args args) with
      | Ok got ->
          check "served output equals the interpreter" true
            (Equiv.bitwise (expected_for args) got)
      | Error e -> Alcotest.fail (Error.to_string e))

(* --- the facade's one-shot entry point --- *)

let test_run_once () =
  let args = base_args () in
  match Functs.run_once ~batch ~seq (lstm ()) (clone_args args) with
  | Ok got -> check "run_once equals the interpreter" true
      (Equiv.bitwise (expected_for args) got)
  | Error e -> Alcotest.fail (Error.to_string e)

(* --- Config.of_env: strict validation, no silent fallback --- *)

let getenv_of assoc name = List.assoc_opt name assoc

let test_of_env_defaults () =
  match Config.of_env ~getenv:(getenv_of []) () with
  | Ok cfg -> check "empty env yields the defaults" true (cfg = Config.default)
  | Error e -> Alcotest.fail (Error.to_string e)

let test_of_env_overlay () =
  let env =
    [
      ("FUNCTS_DOMAINS", "3");
      ("FUNCTS_GRAIN", "5");
      ("FUNCTS_KERNEL_GRAIN", "1024");
      ("FUNCTS_CACHE", "off");
      ("FUNCTS_CACHE_SIZE", "7");
      ("FUNCTS_TRACE", "/tmp/t.json");
      ("FUNCTS_TRACE_BUF", "512");
      ("FUNCTS_METRICS", "stderr");
      ("FUNCTS_QUEUE", "9");
      ("FUNCTS_MAX_BATCH", "2");
      ("FUNCTS_BATCH_BUCKETS", "1,2,8");
      ("FUNCTS_SHARDS", "3");
      ("FUNCTS_POLICY", "shed");
      ("FUNCTS_JOURNAL", "off");
      ("FUNCTS_JOURNAL_BUF", "128");
    ]
  in
  match Config.of_env ~getenv:(getenv_of env) () with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok cfg ->
      check_int "domains" 3 cfg.Config.domains;
      check_int "loop grain" 5 cfg.Config.loop_grain;
      check_int "kernel grain" 1024 cfg.Config.kernel_grain;
      check "cache off" false cfg.Config.cache;
      check_int "cache size" 7 cfg.Config.cache_size;
      check "trace file" true (cfg.Config.trace = Config.Trace_file "/tmp/t.json");
      check_int "trace buf" 512 cfg.Config.trace_buf;
      check "metrics stderr" true (cfg.Config.metrics = Config.Metrics_stderr);
      check_int "queue capacity" 9 cfg.Config.queue_capacity;
      check_int "max batch" 2 cfg.Config.max_batch;
      check "batch buckets" true (cfg.Config.batch_buckets = [ 1; 2; 8 ]);
      check_int "shards" 3 cfg.Config.shards;
      check "policy shed" true (cfg.Config.policy = `Shed);
      check "journal off" false cfg.Config.journal;
      check_int "journal buf" 128 cfg.Config.journal_buf

let rejects env key =
  match Config.of_env ~getenv:(getenv_of env) () with
  | Error (Error.Invalid_config { key = k; _ }) ->
      Alcotest.(check string) "rejected variable" key k
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.failf "malformed %s must be rejected, not defaulted" key

let test_of_env_rejects_malformed () =
  rejects [ ("FUNCTS_DOMAINS", "many") ] "FUNCTS_DOMAINS";
  rejects [ ("FUNCTS_DOMAINS", "0") ] "FUNCTS_DOMAINS";
  rejects [ ("FUNCTS_CACHE", "maybe") ] "FUNCTS_CACHE";
  rejects [ ("FUNCTS_TRACE_BUF", "8") ] "FUNCTS_TRACE_BUF";
  rejects [ ("FUNCTS_POLICY", "retry") ] "FUNCTS_POLICY";
  rejects [ ("FUNCTS_QUEUE", "-1") ] "FUNCTS_QUEUE";
  rejects [ ("FUNCTS_JOURNAL", "maybe") ] "FUNCTS_JOURNAL";
  rejects [ ("FUNCTS_JOURNAL_BUF", "8") ] "FUNCTS_JOURNAL_BUF";
  (* bucket lists: must parse, start at 1, and be strictly ascending *)
  rejects [ ("FUNCTS_BATCH_BUCKETS", "4,16") ] "FUNCTS_BATCH_BUCKETS";
  rejects [ ("FUNCTS_BATCH_BUCKETS", "1,16,4") ] "FUNCTS_BATCH_BUCKETS";
  rejects [ ("FUNCTS_BATCH_BUCKETS", "1,4,4") ] "FUNCTS_BATCH_BUCKETS";
  rejects [ ("FUNCTS_BATCH_BUCKETS", "1,x") ] "FUNCTS_BATCH_BUCKETS";
  rejects [ ("FUNCTS_SHARDS", "0") ] "FUNCTS_SHARDS"

let test_of_env_empty_means_unset () =
  match Config.of_env ~getenv:(getenv_of [ ("FUNCTS_DOMAINS", "") ]) () with
  | Ok cfg ->
      check_int "empty string leaves the base value"
        Config.default.Config.domains cfg.Config.domains
  | Error e -> Alcotest.fail (Error.to_string e)

(* [Config.apply] sets process-wide pieces only: an engine prepared
   without [?jit] arms no native kernel whatever the applied config
   says. *)
let test_apply_leaves_prepare_defaults () =
  let dir = Filename.temp_dir "functs-apply-jit" "" in
  Fun.protect
    ~finally:(fun () ->
      Config.apply Config.default;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  Config.apply { Config.default with Config.jit = Jit.Auto; jit_dir = dir };
  let g = Graph.clone (Workload.graph (lstm ()) ~batch ~seq) in
  ignore (Passes.tensorssa_pipeline g);
  let eng =
    Engine.prepare ~cache:false g ~inputs:(Engine.input_shapes (base_args ()))
  in
  check_int "no C group armed" 0 (Engine.stats eng).Scheduler.cjit_groups

let test_error_strings () =
  List.iter
    (fun e -> check "error renders non-empty" true (Error.to_string e <> ""))
    [
      Error.Unknown_workload { name = "x"; available = [ "lstm" ] };
      Error.Unknown_profile { name = "x"; available = [] };
      Error.Invalid_config { key = "K"; value = "v"; reason = "r" };
      Error.Parse_error { source = "f.py"; message = "m" };
      Error.Lowering_error "m";
      Error.Runtime_error "m";
      Error.Engine_failure "m";
      Error.Overloaded;
      Error.Deadline_exceeded;
      Error.Cancelled;
      Error.Session_closed;
      Error.Io_error "m";
    ]

let () =
  Alcotest.run "serve"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_of_env_defaults;
          Alcotest.test_case "overlay" `Quick test_of_env_overlay;
          Alcotest.test_case "rejects malformed" `Quick
            test_of_env_rejects_malformed;
          Alcotest.test_case "empty means unset" `Quick
            test_of_env_empty_means_unset;
          Alcotest.test_case "error strings" `Quick test_error_strings;
          Alcotest.test_case "apply leaves prepare defaults" `Quick
            test_apply_leaves_prepare_defaults;
        ] );
      ( "session",
        [
          Alcotest.test_case "multi-domain stress" `Quick test_stress;
          Alcotest.test_case "bucket decomposition is interpreter-equal"
            `Quick test_bucket_equivalence;
          Alcotest.test_case
            "bucket decomposition is interpreter-equal on exact zeros"
            `Quick test_bucket_equivalence_zeros;
          Alcotest.test_case "replies held across 16-buckets" `Quick
            test_held_replies;
          Alcotest.test_case "an aliased scatter buffer is dropped" `Quick
            test_aliased_buffer_dropped;
          Alcotest.test_case "an engine raise keeps batching" `Quick
            test_engine_raise_keeps_batching;
          Alcotest.test_case "16-bucket major words per request" `Quick
            test_major_words_budget;
          Alcotest.test_case "mid-bucket deadline expiry" `Quick
            test_bucket_mid_expiry;
          Alcotest.test_case "poll and cancel" `Quick test_poll_cancel;
          Alcotest.test_case "shard scale-out" `Quick test_shards;
          Alcotest.test_case "deadline: interp fallback" `Quick
            test_deadline_interp_fallback;
          Alcotest.test_case "deadline: shed" `Quick test_deadline_shed;
          Alcotest.test_case "backpressure on size-1 queue" `Quick
            test_overload;
          Alcotest.test_case "submit after close" `Quick
            test_submit_after_close;
          Alcotest.test_case "other signatures are rejected at submit"
            `Quick test_other_signature_rejected;
          Alcotest.test_case "warm submits never recompile" `Quick
            test_warm_no_recompile;
          Alcotest.test_case "clear_cache never rebuilds a served engine"
            `Quick test_clear_cache_no_rebuild;
          Alcotest.test_case "create runs no engine" `Quick
            test_create_runs_no_engine;
          Alcotest.test_case "loop arms are journaled once, by rule" `Quick
            test_loop_arms_journaled;
          Alcotest.test_case "every batching workload compiles its buckets"
            `Quick test_every_batching_workload_buckets;
          Alcotest.test_case "dispatcher placement is journaled" `Quick
            test_dispatcher_placement;
          Alcotest.test_case "a session made on a finished domain serves and closes"
            `Quick test_finished_domain_session;
          Alcotest.test_case "run_once" `Quick test_run_once;
        ] );
    ]
