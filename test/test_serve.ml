(* The serving layer, JIT off, every output bitwise the interpreter's
   ([Equiv.bitwise]): multi-domain stress (no lost / duplicated /
   misrouted responses), batched dispatch
   (any arrival mix decomposes into buckets whose per-request outputs are
   bitwise-equal to batch-1 interpreter runs, including partial final
   buckets and mid-bucket deadline expiry), the ticket API (poll /
   cancel), shard scale-out, deadline expiry under both degradation
   policies, backpressure on a size-1 queue, and the strict
   Config.of_env validation. *)

open Functs

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

let expected_for args =
  let w = lstm () in
  Eval.run (Workload.graph w ~batch ~seq) (clone_args args)

let with_session ?(config = Config.default) f =
  match Functs.compile ~config ~batch ~seq (lstm ()) with
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
let batched_variant shared salt =
  let axes =
    match (lstm ()).Workload.batching with
    | Some b -> b.Workload.input_axes
    | None -> Alcotest.fail "lstm must declare batching"
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

(* Submit [n] distinct same-shape requests while the dispatcher is
   paused (so the whole mix is queued and decomposes greedily on
   resume); returns each request's arguments with its outputs. *)
let serve_round s shared ~salt0 n =
  Session.pause s;
  let reqs = List.init n (fun i -> batched_variant shared (salt0 + i)) in
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

(* Every response is bitwise-equal to its own batch-1 interpreter run. *)
let bucket_round s shared ~salt0 n =
  List.iter
    (fun (args, got) ->
      check "bucketed response is bitwise-equal to its solo run" true
        (Equiv.bitwise (expected_for args) got))
    (serve_round s shared ~salt0 n)

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

let test_submit_after_close () =
  let s = Result.get_ok (Functs.compile ~batch ~seq (lstm ())) in
  Session.close s;
  match Session.submit s (Session.input (base_args ())) with
  | Error Error.Session_closed -> ()
  | Ok _ -> Alcotest.fail "a closed session must refuse submits"
  | Error e -> Alcotest.failf "expected Session_closed, got %s" (Error.to_string e)

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
          Alcotest.test_case "warm submits never recompile" `Quick
            test_warm_no_recompile;
          Alcotest.test_case "clear_cache never rebuilds a served engine"
            `Quick test_clear_cache_no_rebuild;
          Alcotest.test_case "run_once" `Quick test_run_once;
        ] );
    ]
