(* Units for the observability layer (lib/obs): span nesting stays
   balanced under exceptions and apart between the threads of one
   domain, the Chrome trace export of a real engine
   run parses and carries the expected spans, the disabled-mode tracer
   allocates nothing on the hot path, the metrics snapshot round-trips
   through its JSON dump, the ring buffers drop oldest-first, and a
   journal record prints as the line [functs why] shows. *)

open Functs_core
open Functs_exec
open Functs_workloads
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics
module Journal = Functs_obs.Journal
module Json = Functs_obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Each test drives the process-wide tracer; reset around each one so
   tests stay order-independent. *)
let with_tracer f =
  Tracer.clear ();
  Tracer.enable ();
  Fun.protect
    ~finally:(fun () ->
      Tracer.disable ();
      Tracer.clear ())
    f

(* --- spans --- *)

exception Boom

let test_span_nesting_exceptions () =
  with_tracer (fun () ->
      let result =
        Tracer.span "outer" (fun () ->
            (try Tracer.span "inner" (fun () -> raise Boom)
             with Boom -> ());
            17)
      in
      check_int "span returns the thunk's value" 17 result;
      check_int "depth unwinds to zero across exceptions" 0 (Tracer.depth ());
      let names_phases =
        List.map
          (fun (e : Tracer.event) -> (e.ev_name, e.ev_phase))
          (Tracer.events ())
      in
      check "begin/end pairs stay balanced and properly nested" true
        (names_phases
        = [
            ("outer", Tracer.Begin);
            ("inner", Tracer.Begin);
            ("inner", Tracer.End);
            ("outer", Tracer.End);
          ]);
      (* the raising span's end must not be later than its parent's *)
      match Tracer.events () with
      | [ ob; ib; ie; oe ] ->
          check "timestamps are monotone" true
            (ob.Tracer.ev_ts <= ib.Tracer.ev_ts
            && ib.Tracer.ev_ts <= ie.Tracer.ev_ts
            && ie.Tracer.ev_ts <= oe.Tracer.ev_ts)
      | _ -> Alcotest.fail "expected exactly four events")

let test_span_reraises () =
  with_tracer (fun () ->
      check "the exception propagates out of the span" true
        (try
           Tracer.span "s" (fun () -> raise Boom)
         with Boom -> true);
      check_int "and the end event was still emitted" 2
        (List.length (Tracer.events ()));
      check_int "the depth is restored" 0 (Tracer.depth ()))

(* --- per-thread identity: two systhreads of one domain --- *)

(* Both threads stand inside their outer span at once (a barrier), so a
   track or depth counter shared by the domain would show: each thread
   must read its own depths, 1 then 2, unwind to 0, and emit on a track
   of its own. *)
let test_thread_identity () =
  with_tracer (fun () ->
      let m = Mutex.create () and c = Condition.create () in
      let inside = ref 0 in
      let barrier () =
        Mutex.lock m;
        incr inside;
        Condition.broadcast c;
        while !inside < 2 do
          Condition.wait c m
        done;
        Mutex.unlock m
      in
      let depths = Array.make 2 [] and ids = Array.make 2 (-1) in
      let body i () =
        ids.(i) <- Thread.id (Thread.self ());
        let inner =
          Tracer.span "outer" (fun () ->
              barrier ();
              let d1 = Tracer.depth () in
              let d2 =
                Tracer.span "inner" (fun () ->
                    Thread.yield ();
                    Tracer.depth ())
              in
              [ d1; d2 ])
        in
        depths.(i) <- inner @ [ Tracer.depth () ]
      in
      List.iter Thread.join (List.init 2 (fun i -> Thread.create (body i) ()));
      Array.iteri
        (fun i ds ->
          check (Printf.sprintf "thread %d nests 1, 2, then unwinds to 0" i)
            true (ds = [ 1; 2; 0 ]))
        depths;
      check "distinct thread ids" true (ids.(0) <> ids.(1));
      Array.iter
        (fun id ->
          check_int "each thread's four events carry its own tid" 4
            (List.length
               (List.filter
                  (fun (e : Tracer.event) -> e.ev_tid = id)
                  (Tracer.events ()))))
        ids;
      check_int "the events have no other tid" 8 (List.length (Tracer.events ())))

(* --- chrome export of a real run --- *)

let test_chrome_export_lstm () =
  with_tracer (fun () ->
      let w = Option.get (Registry.find "lstm") in
      let batch = w.Workload.default_batch and seq = w.Workload.default_seq in
      let g = Workload.graph w ~batch ~seq in
      ignore (Passes.tensorssa_pipeline g);
      let args = w.Workload.inputs ~batch ~seq in
      let eng =
        Engine.prepare ~cache:false g ~inputs:(Engine.input_shapes args)
      in
      ignore (Engine.run eng args);
      let text = Tracer.to_chrome () in
      match Json.parse text with
      | Error msg -> Alcotest.fail ("chrome trace is not valid JSON: " ^ msg)
      | Ok root ->
          let events =
            match Json.member "traceEvents" root with
            | Some (Json.Arr l) -> l
            | _ -> Alcotest.fail "no traceEvents array"
          in
          check "trace is non-empty" true (events <> []);
          let names =
            List.filter_map
              (fun e ->
                match Json.member "name" e with
                | Some (Json.Str s) -> Some s
                | _ -> None)
              events
          in
          List.iter
            (fun required ->
              check (required ^ " span present") true
                (List.mem required names))
            [
              "fusion.plan";
              "engine.shape_infer";
              "scheduler.prepare";
              "engine.buffer_plan";
              "scheduler.run";
              "kernel.launch";
            ];
          (* every event is well-formed: string name, B/E/i phase,
             numeric ts *)
          List.iter
            (fun e ->
              (match Json.member "ph" e with
              | Some (Json.Str ("B" | "E" | "i")) -> ()
              | _ -> Alcotest.fail "bad phase");
              match Json.member "ts" e with
              | Some (Json.Num _) -> ()
              | _ -> Alcotest.fail "bad timestamp")
            events)

(* --- disabled-mode cost --- *)

let test_disabled_no_alloc () =
  Tracer.disable ();
  let hits = ref 0 in
  let work () = incr hits in
  (* warm up: promote [work] and fault in any lazy setup *)
  Tracer.span "hot" work;
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Tracer.span "hot" work
  done;
  let allocated = Gc.minor_words () -. w0 in
  check_int "the thunk ran every time" (iters + 1) !hits;
  (* The only allocation budget is the Gc.minor_words probes themselves
     (a boxed float each); a per-span allocation would cost >= 2 words
     x 10k iterations. *)
  check
    (Printf.sprintf "disabled spans allocate nothing (%.0f words)" allocated)
    true
    (allocated < 64.);
  let e0 = Tracer.emitted () in
  Tracer.instant "hot.instant";
  check_int "disabled instants emit nothing" e0 (Tracer.emitted ())

(* --- ring buffer --- *)

let test_ring_wrap () =
  let original = Tracer.capacity () in
  Tracer.set_capacity 16;
  Tracer.enable ();
  Fun.protect
    ~finally:(fun () ->
      Tracer.disable ();
      Tracer.set_capacity original)
    (fun () ->
      for i = 1 to 40 do
        Tracer.instant (Printf.sprintf "ev%d" i)
      done;
      check_int "emitted counts every event" 40 (Tracer.emitted ());
      check_int "dropped counts the overwritten" 24 (Tracer.dropped ());
      let evs = Tracer.events () in
      check_int "the buffer keeps capacity events" 16 (List.length evs);
      check "and they are the most recent, oldest first" true
        (match (evs, List.rev evs) with
        | first :: _, last :: _ ->
            first.Tracer.ev_name = "ev25" && last.Tracer.ev_name = "ev40"
        | _ -> false))

(* --- metrics --- *)

let test_metrics_roundtrip () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 2.5;
  let h = Metrics.histogram "test.histogram" in
  Metrics.observe h 1.0;
  Metrics.observe h 4.0;
  Metrics.observe h 0.25;
  let s = Metrics.snapshot () in
  check_int "counter reads back" 42 (List.assoc "test.counter" s.counters);
  check "gauge reads back" true (List.assoc "test.gauge" s.gauges = 2.5);
  let hs = List.assoc "test.histogram" s.histograms in
  check "histogram aggregates" true
    (hs.Metrics.h_count = 3 && hs.h_sum = 5.25 && hs.h_min = 0.25
   && hs.h_max = 4.0);
  let s' = Metrics.of_json (Metrics.to_json s) in
  check "snapshot round-trips through its JSON dump" true (s = s');
  (* the text dump mentions every instrument *)
  let text = Metrics.to_text s in
  List.iter
    (fun name ->
      check (name ^ " in text dump") true (contains_sub text name))
    [ "test.counter"; "test.gauge"; "test.histogram" ]

let test_metrics_absorbed_counters () =
  (* The compile-cache counters now live in the registry under
     engine.cache.*; the deprecated Compiler_profile alias reads them. *)
  Compiler_profile.reset_compile_cache ();
  Engine.clear_cache ();
  let w = Option.get (Registry.find "nms") in
  let batch = w.Workload.default_batch and seq = w.Workload.default_seq in
  let g = Workload.graph w ~batch ~seq in
  ignore (Passes.tensorssa_pipeline g);
  let args = w.Workload.inputs ~batch ~seq in
  let inputs = Engine.input_shapes args in
  ignore (Engine.prepare g ~inputs);
  ignore (Engine.prepare g ~inputs);
  let s = Metrics.snapshot () in
  check_int "registry miss counter" 1
    (List.assoc "engine.cache.misses" s.counters);
  check_int "registry hit counter" 1 (List.assoc "engine.cache.hits" s.counters);
  let cs = Compiler_profile.cache_snapshot () in
  check_int "alias sees the same hits" cs.Compiler_profile.cache_hits
    (List.assoc "engine.cache.hits" s.counters);
  check_int "alias sees the same misses" cs.Compiler_profile.cache_misses
    (List.assoc "engine.cache.misses" s.counters)

(* --- histogram percentiles vs exact sorted quantiles ---

   The log-bucketed histogram trades exactness for O(1) hot-path cost;
   its documented contract is nearest-rank percentiles within one
   bucket (6.25% relative width), clamped to the observed [min, max].
   Check that against the exact nearest-rank quantile of the same
   sample, over deterministic heavy-tailed data spanning ~7 decades. *)

let test_percentile_vs_exact () =
  let seed = ref 0x2545F491 in
  let next () =
    (* xorshift; deterministic across runs and platforms *)
    let x = !seed in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) in
    seed := x land 0x3FFFFFFF;
    float_of_int !seed /. float_of_int 0x40000000
  in
  let n = 5000 in
  let values =
    Array.init n (fun _ ->
        (* exp-distributed across ~1e-2 .. 1e5: exercises many octaves *)
        exp ((next () *. 16.) -. 4.))
  in
  Metrics.reset ();
  let h = Metrics.histogram "test.percentile" in
  Array.iter (fun v -> Metrics.observe h v) values;
  let hs =
    List.assoc "test.percentile"
      (Metrics.snapshot ()).Metrics.histograms
  in
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let exact p =
    let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
    sorted.(rank - 1)
  in
  List.iter
    (fun p ->
      let got = Metrics.percentile hs p in
      let want = exact p in
      (* one bucket of slack either side: the bucket containing the
         exact quantile is 6.25% wide and the estimate returns a
         neighbouring bucket's midpoint in the worst case *)
      let rel = Float.abs (got -. want) /. want in
      check
        (Printf.sprintf "p%02.0f within a bucket (got %g want %g)" (100. *. p)
           got want)
        true (rel <= 0.13))
    [ 0.01; 0.10; 0.25; 0.50; 0.75; 0.90; 0.99; 1.0 ];
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | [ _ ] | [] -> true
  in
  check "percentiles are nondecreasing in p (p99 >= p50)" true
    (nondecreasing
       (List.init 101 (fun i -> Metrics.percentile hs (float_of_int i /. 100.))));
  check "p0 clamps to the observed min" true
    (Metrics.percentile hs 0. >= hs.Metrics.h_min);
  check "p100 clamps to the observed max" true
    (Metrics.percentile hs 1.0 <= hs.Metrics.h_max);
  check "empty histogram reads 0" true
    (Metrics.percentile Metrics.hstat_zero 0.5 = 0.)

(* --- decision journal --- *)

let with_journal cap f =
  let original = Journal.capacity () in
  Journal.set_capacity cap;
  Journal.enable ();
  Fun.protect
    ~finally:(fun () ->
      Journal.set_capacity original;
      Journal.enable ())
    f

let test_journal_ring_wrap () =
  with_journal 16 (fun () ->
      for i = 1 to 40 do
        Journal.record Journal.Tuner_sample "test" ~id:i ~arm:"x"
          ~value:(float_of_int i)
      done;
      check_int "recorded counts every entry" 40 (Journal.recorded ());
      check_int "dropped counts the overwritten" 24 (Journal.dropped ());
      let es = Journal.entries () in
      check_int "the ring keeps capacity entries" 16 (List.length es);
      check "and they are the most recent, oldest first" true
        (match (es, List.rev es) with
        | first :: _, last :: _ ->
            first.Journal.j_id = 25 && last.Journal.j_id = 40
        | _ -> false);
      (* disabled record is a true no-op *)
      Journal.disable ();
      Journal.record Journal.Tuner_pin "test";
      check_int "disabled records don't count" 40 (Journal.recorded ()))

let test_journal_concurrent () =
  with_journal 256 (fun () ->
      let per_domain = 1000 and domains = 4 in
      let worker d () =
        for i = 1 to per_domain do
          Journal.record Journal.Tuner_sample "test.concurrent" ~id:d
            ~arm:(string_of_int d) ~value:(float_of_int i)
        done
      in
      let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join ds;
      check_int "no record lost to a race" (domains * per_domain)
        (Journal.recorded ());
      check_int "ring holds exactly capacity" 256
        (List.length (Journal.entries ()));
      check_int "dropped accounts for the rest"
        ((domains * per_domain) - 256)
        (Journal.dropped ());
      (* ring order is append order: timestamps never decrease *)
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            a.Journal.j_ts <= b.Journal.j_ts && monotone rest
        | _ -> true
      in
      check "entries are in append order" true (monotone (Journal.entries ())))

(* [functs why] prints each record with [entry_to_text]: the kind and
   site, then [#id], [arm=], [value=] and the detail, each only when
   set; [to_text] joins the records oldest first. *)
let test_journal_text () =
  with_journal 16 (fun () ->
      Journal.record Journal.Tuner_pin "scheduler.loop" ~id:38 ~arm:"batched"
        ~detail:"rule=vector-plan";
      Journal.record Journal.Cache_evict "engine.cache" ~value:3.;
      let body e =
        (* drop the right-aligned timestamp, [%10.0fus ] *)
        let t = Journal.entry_to_text e in
        match String.index_opt t 'u' with
        | Some i when String.sub t i 3 = "us " ->
            String.sub t (i + 3) (String.length t - i - 3)
        | _ -> Alcotest.failf "no timestamp in %S" t
      in
      match Journal.entries () with
      | [ pin; evict ] ->
          Alcotest.(check string)
            "a loop pin" "tuner.pin         scheduler.loop#38 arm=batched rule=vector-plan"
            (body pin);
          Alcotest.(check string)
            "no id, arm or detail" "cache.evict       engine.cache value=3"
            (body evict);
          Alcotest.(check string)
            "to_text joins oldest first"
            (Journal.entry_to_text pin ^ "\n" ^ Journal.entry_to_text evict)
            (Journal.to_text ())
      | es -> Alcotest.failf "%d records, want 2" (List.length es))

(* --- flow events: one served request links submit to its batch --- *)

let test_flow_pairing () =
  with_tracer (fun () ->
      let w = Option.get (Registry.find "nms") in
      let batch = w.Workload.default_batch and seq = w.Workload.default_seq in
      let args = w.Workload.inputs ~batch ~seq in
      (match Functs.Session.create ~config:Functs.Config.default w with
      | Error _ -> Alcotest.fail "session create failed"
      | Ok s ->
          Fun.protect
            ~finally:(fun () -> Functs.Session.close s)
            (fun () ->
              match Functs.Session.run s args with
              | Ok _ -> ()
              | Error _ -> Alcotest.fail "session run failed"));
      match Json.parse (Tracer.to_chrome ()) with
      | Error msg -> Alcotest.fail ("chrome trace invalid: " ^ msg)
      | Ok root ->
          let events =
            match Json.member "traceEvents" root with
            | Some (Json.Arr l) -> l
            | _ -> Alcotest.fail "no traceEvents array"
          in
          let flows ph =
            List.filter_map
              (fun e ->
                match (Json.member "name" e, Json.member "ph" e) with
                | Some (Json.Str "serve.req"), Some (Json.Str p) when p = ph ->
                    Some e
                | _ -> None)
              events
          in
          let starts = flows "s" and finishes = flows "f" in
          check "at least one flow start" true (starts <> []);
          check_int "every start has its finish" (List.length starts)
            (List.length finishes);
          let id_of e =
            match Json.member "id" e with
            | Some (Json.Num n) -> int_of_float n
            | _ -> Alcotest.fail "flow event without an id"
          in
          List.iter
            (fun s ->
              let id = id_of s in
              check
                (Printf.sprintf "flow %d pairs start with finish" id)
                true
                (List.exists (fun f -> id_of f = id) finishes))
            starts;
          (* finishes bind to the enclosing slice (Chrome's bp=e), so
             the arrow lands on the dispatcher's batch span *)
          List.iter
            (fun f ->
              match Json.member "bp" f with
              | Some (Json.Str "e") -> ()
              | _ -> Alcotest.fail "flow finish without bp=e")
            finishes)

(* --- json parser corners --- *)

let test_json_parser () =
  (match Json.parse {| {"a":[1,2.5,-3e2],"b":"x\n\"yA","c":true,"d":null} |} with
  | Ok root ->
      check "array" true
        (Json.member "a" root = Some (Json.Arr [ Json.Num 1.; Json.Num 2.5; Json.Num (-300.) ]));
      check "string escapes" true
        (Json.member "b" root = Some (Json.Str "x\n\"yA"));
      check "bool" true (Json.member "c" root = Some (Json.Bool true));
      check "null" true (Json.member "d" root = Some Json.Null)
  | Error msg -> Alcotest.fail msg);
  check "trailing garbage rejected" true
    (match Json.parse "{} extra" with Error _ -> true | Ok _ -> false);
  check "truncated input rejected" true
    (match Json.parse {| {"a": |} with Error _ -> true | Ok _ -> false);
  (* printer/parser round trip on a nested value *)
  let v =
    Json.Obj
      [
        ("list", Json.Arr [ Json.Str "a\\b"; Json.Num 0.125 ]);
        ("empty", Json.Obj []);
      ]
  in
  check "print/parse round trip" true (Json.parse (Json.to_string v) = Ok v)

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "nesting under exceptions" `Quick
            test_span_nesting_exceptions;
          Alcotest.test_case "spans re-raise" `Quick test_span_reraises;
          Alcotest.test_case "threads of one domain nest apart" `Quick
            test_thread_identity;
          Alcotest.test_case "chrome export of an lstm run" `Quick
            test_chrome_export_lstm;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_no_alloc;
          Alcotest.test_case "ring buffer wraps oldest-first" `Quick
            test_ring_wrap;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot JSON round trip" `Quick
            test_metrics_roundtrip;
          Alcotest.test_case "compile-cache counters absorbed" `Quick
            test_metrics_absorbed_counters;
          Alcotest.test_case "percentiles track exact quantiles" `Quick
            test_percentile_vs_exact;
        ] );
      ( "journal",
        [
          Alcotest.test_case "ring wraps oldest-first" `Quick
            test_journal_ring_wrap;
          Alcotest.test_case "concurrent records are not lost" `Quick
            test_journal_concurrent;
          Alcotest.test_case "records print as why lines" `Quick
            test_journal_text;
        ] );
      ( "flow",
        [
          Alcotest.test_case "served request links submit to batch" `Quick
            test_flow_pairing;
        ] );
      ("json", [ Alcotest.test_case "parser corners" `Quick test_json_parser ]);
    ]
