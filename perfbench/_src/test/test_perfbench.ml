(* Units for the benchmark's own measurement code: exact percentiles,
   the closed loop's failure accounting and reply checks, a p99 that a
   single stall moves, shared arguments that stay physically shared (so
   the session can bucket them), and the reply oracle.

     python3 perfbench/run.py --self-test *)

open Functs
open Perfbench

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 0.))

(* --- Stats --- *)

let test_exact_percentiles () =
  let st = Random.State.make [| 7 |] in
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  (* shuffled, so the result cannot depend on input order *)
  for i = 99 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- t
  done;
  check_float "p50" 50. (Stats.quantile xs 0.5);
  check_float "p99" 99. (Stats.quantile xs 0.99);
  check_float "p0" 1. (Stats.quantile xs 0.);
  check_float "p100" 100. (Stats.quantile xs 1.);
  check_float "median" 50. (Stats.median xs);
  check_int "beyond p99" 1 (Stats.beyond xs 0.99);
  check_int "beyond p90" 10 (Stats.beyond xs 0.9);
  check_float "odd median" 2. (Stats.median [| 3.; 1.; 2. |]);
  check_float "single" 4. (Stats.quantile [| 4. |] 0.99)

let test_buf_grows () =
  let b = Stats.buf () in
  for i = 1 to 5000 do
    Stats.push b (float_of_int i)
  done;
  let xs = Stats.contents b in
  check_int "length" 5000 (Array.length xs);
  check_float "last" 5000. xs.(4999)

(* --- Loadgen --- *)

let instant ?(check = fun _ _ -> true) ?(served = fun _ -> true) () =
  { Loadgen.submit = (fun i -> Some i); await = (fun i -> i); served; check;
    ticket_id = (fun i -> i) }

let test_closed_loop_counts () =
  let r =
    Loadgen.closed
      (instant ~served:(fun i -> i <> 2) ())
      ~depth:4 ~warmup_s:0. ~seconds:0.02 ~next:(Loadgen.cycle 5)
  in
  check "ran" true (Array.length r.latency > 0 && Loadgen.throughput r > 0.);
  (* requests cycle through indices 0..4 and every reply to index 2 is an
     error, counted whether or not it arrived in the window *)
  check_int "errors counted" ((r.attempted + 2) / 5) r.failed

(* In the window a reply is held, not checked: the oracle runs once per
   request index when the window closes, plus once per reply drained
   after it. *)
let test_check_after_window () =
  let checks = ref 0 in
  let sys = instant ~check:(fun i _ -> incr checks; i <> 2) () in
  let r = Loadgen.closed sys ~depth:1 ~warmup_s:0. ~seconds:0.02 ~next:(Loadgen.cycle 5) in
  check "many requests in the window" true (Array.length r.latency > 100);
  check "oracle ran per index, not per reply" true (!checks <= 5 + 1);
  (* once held, and again if the drained reply was index 2's *)
  check "the wrong reply to index 2 fails" true (r.failed = 1 || r.failed = 2)

(* A single program stall that holds back every request in flight — a
   major collection, a tuner re-sampling — moves the reported p99, the
   mean of the windows' p99s.  Each reply takes 1 ms; in one of twelve
   windows the first reply takes 100 ms, and the eight requests in
   flight then are 8 of about 50 in that window. *)
let test_p99_sees_one_stall () =
  let run ~stall =
    let stalled = ref false in
    let window k =
      let first = ref true in
      let sys =
        { (instant ()) with
          Loadgen.await =
            (fun i ->
              let long = stall && k = 5 && !first in
              first := false;
              if long then stalled := true;
              Unix.sleepf (if long then 0.1 else 0.001);
              i) }
      in
      Loadgen.closed sys ~depth:8 ~warmup_s:0. ~seconds:0.05 ~next:(Loadgen.cycle 5)
    in
    let ws = List.init 12 window in
    check "stalled as asked" stall !stalled;
    (Loadgen.mean_quantile ws 0.99, List.nth ws 5)
  in
  let steady, _ = run ~stall:false and moved, w5 = run ~stall:true in
  check "the stalled window's p99 is the stall" true (Stats.quantile w5.latency 0.99 >= 0.1);
  check "the mean of the windows' p99s moves by its share" true
    (moved -. steady >= 0.1 /. 12. *. 0.75)

(* --- Requests --- *)

let lstm () = Result.get_ok (find_workload "lstm")

let same_storage a b =
  match (a, b) with
  | Value.Tensor x, Value.Tensor y -> x == y
  | _ -> false

let test_shared_args_physical () =
  let w = lstm () in
  let reqs = Requests.generate_args w ~batch:1 ~seq:8 ~seed:3 ~distinct:4 in
  let arg r i = List.nth reqs.(r) i in
  (* lstm's [u] (argument 1) is declared shared; x, h0, c0 are batched *)
  for r = 1 to 3 do
    check "shared weight is one physical tensor" true (same_storage (arg 0 1) (arg r 1));
    check "batched input is per request" false (same_storage (arg 0 0) (arg r 0));
    check "batched inputs differ" false (Value.equal (arg 0 0) (arg r 0))
  done;
  let again = Requests.generate_args w ~batch:1 ~seq:8 ~seed:3 ~distinct:4 in
  let other = Requests.generate_args w ~batch:1 ~seq:8 ~seed:4 ~distinct:4 in
  check "same seed, same inputs" true
    (List.for_all2 (Value.equal ~atol:0.) reqs.(2) again.(2));
  check "other seed, other inputs" false
    (List.for_all2 (Value.equal ~atol:0.) reqs.(2) other.(2))

(* The point of physical sharing: the session puts such requests in one
   bucket.  Four queued while paused must run as one b4 run. *)
let test_shared_args_bucket () =
  let w = lstm () in
  let config = { Config.default with domains = 1; jit = Jit.Off } in
  let sess = Result.get_ok (Session.create ~config ~seq:8 w) in
  let reqs = Requests.generate_args w ~batch:1 ~seq:8 ~seed:5 ~distinct:4 in
  let before = Session.stats sess in
  Session.pause sess;
  let tks =
    Array.map (fun args -> Result.get_ok (Session.submit sess (Session.input args))) reqs
  in
  Session.resume sess;
  Array.iter (fun tk -> ignore (Session.await tk)) tks;
  let after = Session.stats sess in
  Session.close sess;
  let b4 st = Option.value (List.assoc_opt 4 st.Session.bucket_runs) ~default:0 in
  check_int "one b4 run" 1 (b4 after - b4 before)

let test_oracle () =
  let w = lstm () in
  let reqs = Requests.generate w ~batch:1 ~seq:4 ~seed:9 ~distinct:2 in
  let r = reqs.(0) in
  check "reference matches itself" true (Requests.matches r r.expected);
  check "other request's reply rejected" false (Requests.matches r reqs.(1).expected);
  let nudged =
    List.map
      (function
        | Value.Tensor t ->
            let t = Tensor.clone t in
            let ix = Array.make (Array.length (Tensor.shape t)) 0 in
            Tensor.set t ix (Tensor.get t ix *. (1. +. 1e-12));
            Value.Tensor t
        | v -> v)
      r.expected
  in
  check "within 1e-9 relative accepted" true (Requests.matches r nudged);
  check "bitwise" true (Requests.close_enough 1.5 1.5);
  check "relative miss" false (Requests.close_enough 1.0 1.000001)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "exact percentiles of a known sample" `Quick
            test_exact_percentiles;
          Alcotest.test_case "sample buffer grows" `Quick test_buf_grows;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "closed loop counts errors" `Quick test_closed_loop_counts;
          Alcotest.test_case "replies in the window are checked after it" `Quick
            test_check_after_window;
          Alcotest.test_case "p99 sees a single stall" `Quick test_p99_sees_one_stall;
        ] );
      ( "requests",
        [
          Alcotest.test_case "shared arguments stay physically shared" `Quick
            test_shared_args_physical;
          Alcotest.test_case "shared arguments batch" `Quick test_shared_args_bucket;
          Alcotest.test_case "reply oracle" `Quick test_oracle;
        ] );
    ]
