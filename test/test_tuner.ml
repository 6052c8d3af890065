(* The expiring-pin, min-of-N auto-tuner shared by group and loop
   dispatch: interleaved sampling order, argmin with ties to the earlier
   arm, pin budgets and expiry seeding, dropped arms, frozen pins and
   the journal records — for both arm lists the scheduler uses. *)

open Functs_exec
module Journal = Functs_obs.Journal

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_strs = Alcotest.(check (list string))

type garm = Cjit | Closure | Per_node
type larm = Inline | Dispatch | Seq

let gname = function
  | Cjit -> "c-jit"
  | Closure -> "closure"
  | Per_node -> "per_node"

let lname = function
  | Inline -> "inline"
  | Dispatch -> "dispatch"
  | Seq -> "seq"

let group ?(arms = [ Cjit; Closure; Per_node ]) () =
  Tuner.create ~scope:"scheduler.group" ~id:7 ~name:gname arms

let loop () =
  Tuner.create ~scope:"scheduler.loop" ~id:3 ~name:lname
    [ Inline; Dispatch; Seq ]

(* Drive [n] launches, each taking [cost arm] seconds; returns the arms
   launched, in order. *)
let drive t ~name ~cost n =
  List.init n (fun _ ->
      let arm = t.Tuner.arm in
      Tuner.record t arm (cost arm);
      name arm)

let journal () =
  List.map
    (fun (e : Journal.entry) ->
      Printf.sprintf "%s %s %d %s" (Journal.kind_name e.j_kind) e.j_site e.j_id
        e.j_arm)
    (Journal.entries ())

let test_sampling_order () =
  let t = group () in
  let gcost = function Cjit -> 1e-3 | Closure -> 2e-3 | Per_node -> 3e-3 in
  check_strs "group arms interleave until each has 3 samples"
    [ "c-jit"; "closure"; "per_node"; "c-jit"; "closure"; "per_node"; "c-jit";
      "closure"; "per_node"; "c-jit" ]
    (drive t ~name:gname ~cost:gcost 10);
  check_str "the fastest group arm is pinned" "c-jit" (Tuner.label t);
  let l = loop () in
  let lcost = function Inline -> 3e-3 | Dispatch -> 1e-3 | Seq -> 2e-3 in
  check_strs "loop arms interleave until each has 3 samples"
    [ "inline"; "dispatch"; "seq"; "inline"; "dispatch"; "seq"; "inline";
      "dispatch"; "seq"; "dispatch"; "dispatch" ]
    (drive l ~name:lname ~cost:lcost 11);
  check "the fastest loop arm is pinned" true (Tuner.pinned l = Some Dispatch);
  (* an unarmed group samples only its two arms *)
  let u = group ~arms:[ Closure; Per_node ] () in
  check_strs "two-arm group"
    [ "closure"; "per_node"; "closure"; "per_node"; "closure"; "per_node";
      "per_node" ]
    (drive u ~name:gname
       ~cost:(function Per_node -> 1e-3 | _ -> 2e-3)
       7)

let test_ties_to_earlier_arm () =
  let g = group () in
  ignore (drive g ~name:gname ~cost:(fun _ -> 1e-3) 9);
  check "group tie: c-jit wins" true (Tuner.pinned g = Some Cjit);
  let g = group () in
  ignore
    (drive g ~name:gname ~cost:(function Cjit -> 2e-3 | _ -> 1e-3) 9);
  check "group tie below c-jit: closure wins" true
    (Tuner.pinned g = Some Closure);
  let l = loop () in
  ignore (drive l ~name:lname ~cost:(fun _ -> 1e-3) 9);
  check "loop tie: inline wins" true (Tuner.pinned l = Some Inline);
  let l = loop () in
  ignore
    (drive l ~name:lname ~cost:(function Inline -> 2e-3 | _ -> 1e-3) 9);
  check "loop tie below inline: dispatch wins" true
    (Tuner.pinned l = Some Dispatch)

let test_min_of_samples () =
  let t = group () in
  (* one slow outlier per arm: the minimum, not the sum, decides *)
  let n = ref 0 in
  let cost arm =
    incr n;
    match arm with
    | Cjit -> if !n = 1 then 1.0 else 2e-3
    | Closure -> 3e-3
    | Per_node -> 4e-3
  in
  ignore (drive t ~name:gname ~cost 9);
  check "a one-off outlier does not cost c-jit the pin" true
    (Tuner.pinned t = Some Cjit)

let test_expiry_seeds_incumbent () =
  let t = group () in
  let fast = ref Closure in
  let cost arm = if arm = !fast then 1e-3 else 2e-3 in
  ignore (drive t ~name:gname ~cost 9);
  check "closure pinned" true (Tuner.pinned t = Some Closure);
  (* the first budget is 16 launches *)
  check_strs "the pin holds for its budget"
    (List.init 16 (fun _ -> "closure"))
    (drive t ~name:gname ~cost 16);
  check_str "expired: sampling again" "sampling" (Tuner.label t);
  check "the incumbent keeps its window-best" true
    (Tuner.best t Closure = 1e-3);
  (* only the challengers re-sample *)
  check_strs "challengers interleave, incumbent skipped"
    [ "c-jit"; "per_node"; "c-jit"; "per_node"; "c-jit"; "per_node"; "closure" ]
    (drive t ~name:gname ~cost 7);
  check "a correct pin survives re-sampling" true
    (Tuner.pinned t = Some Closure);
  (* the re-pin doubled the budget: 32 launches before the next expiry,
     the first of which ran just above *)
  ignore (drive t ~name:gname ~cost 30);
  check "still pinned one launch before the doubled budget" true
    (Tuner.pinned t = Some Closure);
  ignore (drive t ~name:gname ~cost 1);
  check_str "expired after 32" "sampling" (Tuner.label t);
  (* a wrong pin heals once a challenger undercuts the window-best *)
  fast := Cjit;
  ignore (drive t ~name:gname ~cost 6);
  check "a faster challenger flips the pin" true (Tuner.pinned t = Some Cjit);
  (* with nothing to challenge it, an expired pin is simply renewed *)
  let one = Tuner.create ~scope:"scheduler.loop" ~id:1 ~name:lname [ Seq ] in
  ignore (drive one ~name:lname ~cost:(fun _ -> 1e-3) (3 + 16 + 1));
  check "a one-arm tuner re-pins at expiry" true (Tuner.pinned one = Some Seq)

let test_drop_and_freeze () =
  let t = group () in
  ignore (drive t ~name:gname ~cost:(function Cjit -> 1e-3 | _ -> 2e-3) 9);
  check "c-jit pinned" true (Tuner.pinned t = Some Cjit);
  Tuner.drop t Cjit;
  check "a dropped pin moves to the next live arm" true
    (Tuner.pinned t = Some Closure);
  check "a dropped arm has no best" true (Tuner.best t Cjit = infinity);
  let t = group () in
  ignore (drive t ~name:gname ~cost:(fun _ -> 1e-3) 1);
  Tuner.drop t Cjit;
  check_strs "sampling stops waiting for a dropped arm"
    [ "closure"; "per_node"; "closure"; "per_node"; "closure"; "per_node" ]
    (drive t ~name:gname ~cost:(fun _ -> 1e-3) 6);
  check "and decides among the live ones" true (Tuner.pinned t = Some Closure);
  (* a frozen group never re-samples *)
  let t = group () in
  Tuner.freeze t Per_node ~detail:"kernel launch raised";
  check "frozen on per_node" true (Tuner.pinned t = Some Per_node);
  check "frozen" true (Tuner.frozen t);
  check_strs "no expiry, ever"
    (List.init 5000 (fun _ -> "per_node"))
    (drive t ~name:gname ~cost:(fun _ -> 1e-3) 5000);
  check_int "every launch attributed" 5000 (Tuner.launches t)

let test_journal_records () =
  Journal.enable ();
  Journal.clear ();
  let t = group () in
  let cost = function Closure -> 1e-3 | _ -> 2e-3 in
  ignore (drive t ~name:gname ~cost 9);
  check_strs "nine samples then a pin"
    (List.init 9 (fun i ->
         "tuner.sample scheduler.group 7 "
         ^ List.nth [ "c-jit"; "closure"; "per_node" ] (i mod 3))
    @ [ "tuner.pin scheduler.group 7 closure" ])
    (journal ());
  Journal.clear ();
  ignore (drive t ~name:gname ~cost 16);
  check_strs "expiry names the incumbent"
    [ "tuner.expire scheduler.group 7 closure" ]
    (journal ());
  Journal.clear ();
  ignore (drive t ~name:gname ~cost:(function Per_node -> 1e-4 | _ -> 2e-3) 6);
  check_strs "re-pin to another arm is a flip"
    [ "tuner.sample scheduler.group 7 c-jit";
      "tuner.sample scheduler.group 7 per_node";
      "tuner.sample scheduler.group 7 c-jit";
      "tuner.sample scheduler.group 7 per_node";
      "tuner.sample scheduler.group 7 c-jit";
      "tuner.sample scheduler.group 7 per_node";
      "tuner.flip scheduler.group 7 per_node" ]
    (journal ());
  Journal.clear ();
  let l = loop () in
  ignore (drive l ~name:lname ~cost:(fun _ -> 1e-3) 9);
  check_strs "loop records carry the loop scope"
    (List.init 9 (fun i ->
         "tuner.sample scheduler.loop 3 "
         ^ List.nth [ "inline"; "dispatch"; "seq" ] (i mod 3))
    @ [ "tuner.pin scheduler.loop 3 inline" ])
    (journal ());
  Journal.clear ();
  let f = group () in
  Tuner.freeze f Per_node ~detail:"kernel launch raised";
  check_strs "a freeze is journaled as a pin"
    [ "tuner.pin scheduler.group 7 per_node" ]
    (journal ());
  Journal.clear ();
  ignore (drive (loop ()) ~name:lname ~cost:(fun _ -> 1e-3) 9);
  check "the pin record carries its budget" true
    (List.exists
       (fun (e : Journal.entry) -> e.j_detail = "budget=16")
       (Journal.entries ()))

(* A late arm (a native kernel whose compile finished after the group
   pinned per_node): only the new arm samples, three times, then the
   faster of it and the seeded incumbent is pinned. *)
let test_add_late_arm () =
  Journal.enable ();
  let late ~cjit_cost =
    let t = group ~arms:[ Cjit; Per_node ] () in
    Tuner.drop t Cjit;
    let cost = function Cjit -> cjit_cost | _ -> 2e-3 in
    check_strs "before the add, per_node alone samples and pins"
      [ "per_node"; "per_node"; "per_node"; "per_node" ]
      (drive t ~name:gname ~cost 4);
    check "per_node pinned" true (Tuner.pinned t = Some Per_node);
    Journal.clear ();
    Tuner.add t Cjit;
    check_str "the add re-opens sampling" "sampling" (Tuner.label t);
    check "the incumbent keeps its best" true (Tuner.best t Per_node = 2e-3);
    check_strs "only the new arm samples, three times, then the pin"
      [ "c-jit"; "c-jit"; "c-jit"; (if cjit_cost < 2e-3 then "c-jit" else "per_node") ]
      (drive t ~name:gname ~cost 4);
    (t, journal ())
  in
  let t, records = late ~cjit_cost:1e-3 in
  check "a faster new arm takes the pin" true (Tuner.pinned t = Some Cjit);
  check_strs "three samples and a flip are journaled"
    [ "tuner.sample scheduler.group 7 c-jit";
      "tuner.sample scheduler.group 7 c-jit";
      "tuner.sample scheduler.group 7 c-jit";
      "tuner.flip scheduler.group 7 c-jit" ]
    records;
  let t, records = late ~cjit_cost:3e-3 in
  check "a slower new arm leaves the incumbent pinned" true
    (Tuner.pinned t = Some Per_node);
  check_strs "three samples and a re-pin are journaled"
    [ "tuner.sample scheduler.group 7 c-jit";
      "tuner.sample scheduler.group 7 c-jit";
      "tuner.sample scheduler.group 7 c-jit";
      "tuner.pin scheduler.group 7 per_node" ]
    records;
  (* an add before anything launched samples as if the arm was always
     live; adding a live arm changes nothing *)
  let t = group ~arms:[ Cjit; Per_node ] () in
  Tuner.drop t Cjit;
  Tuner.add t Cjit;
  Tuner.add t Per_node;
  check_strs "a fresh add samples in list order"
    [ "c-jit"; "per_node"; "c-jit"; "per_node"; "c-jit"; "per_node"; "c-jit" ]
    (drive t ~name:gname ~cost:(function Cjit -> 1e-3 | _ -> 2e-3) 7);
  (* a frozen pin stays *)
  let t = group ~arms:[ Cjit; Per_node ] () in
  Tuner.drop t Cjit;
  Tuner.freeze t Per_node ~detail:"test";
  Tuner.add t Cjit;
  check_strs "a frozen tuner keeps its pin after an add"
    [ "per_node"; "per_node" ]
    (drive t ~name:gname ~cost:(fun _ -> 1e-3) 2)

let () =
  Alcotest.run "tuner"
    [
      ( "tuner",
        [
          Alcotest.test_case "interleaved sampling order" `Quick
            test_sampling_order;
          Alcotest.test_case "ties go to the earlier arm" `Quick
            test_ties_to_earlier_arm;
          Alcotest.test_case "min of samples" `Quick test_min_of_samples;
          Alcotest.test_case "expiry seeds the incumbent" `Quick
            test_expiry_seeds_incumbent;
          Alcotest.test_case "dropped arms and frozen pins" `Quick
            test_drop_and_freeze;
          Alcotest.test_case "journal records" `Quick test_journal_records;
          Alcotest.test_case "a late arm samples alone" `Quick
            test_add_late_arm;
        ] );
    ]
