(* Differential validation of the fused execution engine: random
   imperative programs (including prim::If / prim::Loop) must produce the
   interpreter's outputs through the engine, bitwise ([Equiv]),
   sequentially and with horizontal parallelization, and every registry
   workload must do so through the sequential engine; plus units for the
   oracle rule itself, the storage pool, assign donation, the argument
   accept rule, and the slot-consistency rule of parallel-loop
   detection. *)

open Functs_ir
open Functs_core
open Functs_interp
open Functs_exec
open Functs_frontend
module T = Functs_tensor.Tensor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rows = Generators.rows

let inputs seed =
  let state = Random.State.make [| seed |] in
  [ Value.Tensor (T.rand state [| rows; rows |]); Value.Int 1 ]

let fresh_args seed () =
  List.map
    (function
      | Value.Tensor t -> Value.Tensor (T.clone t)
      | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)
    (inputs seed)

let engines_of g args =
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let shapes = Engine.input_shapes args in
  ( Engine.prepare ~parallel:false fg ~inputs:shapes,
    Engine.prepare ~parallel:true ~domains:2 fg ~inputs:shapes )

let agrees g args_fn =
  let expected = Eval.run g (args_fn ()) in
  let eng, engp = engines_of g (args_fn ()) in
  let ok = Equiv.bitwise expected in
  (* repeated-call mode: the second run reuses pooled buffers, tuned
     kernel modes and (process-wide) the compile cache — it must agree
     exactly like the first *)
  ok (Engine.run eng (args_fn ()))
  && ok (Engine.run eng (args_fn ()))
  && ok (Engine.run engp (args_fn ()))
  && ok (Engine.run engp (args_fn ()))

(* --- units --- *)

(* The oracle rule: bits, and nothing but bits. *)
let test_equiv_rule () =
  let t shape xs = Value.Tensor (T.of_array shape xs) in
  let v x = [ t [| 1 |] [| x |] ] in
  let nan1 = Int64.float_of_bits 0x7FF8_0000_0000_0001L in
  let nan2 = Int64.float_of_bits 0x7FF8_0000_0000_0002L in
  check "-0.0 vs +0.0 fails" false (Equiv.bitwise (v (-0.)) (v 0.));
  check "the same NaN payload passes" true (Equiv.bitwise (v nan1) (v nan1));
  check "another NaN payload fails" false (Equiv.bitwise (v nan1) (v nan2));
  check "1 ulp fails" false (Equiv.bitwise (v 1.) (v (Float.succ 1.)));
  let xs = Array.init 6 float_of_int in
  check "a shape mismatch fails" false
    (Equiv.bitwise [ t [| 2; 3 |] xs ] [ t [| 3; 2 |] xs ]);
  check "a list-length mismatch fails" false
    (Equiv.bitwise (v 1.) (v 1. @ v 1.));
  check "equal ints pass" true (Equiv.bitwise [ Value.Int 3 ] [ Value.Int 3 ]);
  check "ints compare exactly" false
    (Equiv.bitwise [ Value.Int 3 ] [ Value.Int 4 ]);
  check "bools compare exactly" false
    (Equiv.bitwise [ Value.Bool true ] [ Value.Bool false ]);
  check "an int never matches a float" false
    (Equiv.bitwise [ Value.Int 1 ] [ Value.Float 1. ])

let test_pool_reuse () =
  let pool = Buffer_plan.create_pool () in
  let t1 = Buffer_plan.alloc pool [| 4; 4 |] in
  Buffer_plan.release pool t1;
  Buffer_plan.release pool t1;
  (* double release is ignored *)
  let t2 = Buffer_plan.alloc pool [| 2; 8 |] in
  check "released storage is recycled across shapes" true
    (T.same_storage t1 t2);
  check_int "one fresh allocation" 1 (Buffer_plan.fresh_allocs pool);
  check_int "one reuse" 1 (Buffer_plan.reuses pool);
  let t3 = Buffer_plan.alloc pool [| 4; 4 |] in
  check "no free storage left" false (T.same_storage t1 t3);
  Buffer_plan.release pool (T.ones [| 4; 4 |])
(* foreign tensors are ignored *)

let test_pool_foreign_not_recycled () =
  let pool = Buffer_plan.create_pool () in
  let mine = T.ones [| 16 |] in
  Buffer_plan.release pool mine;
  let t = Buffer_plan.alloc pool [| 16 |] in
  check "pool never recycles storage it did not allocate" false
    (T.same_storage mine t)

(* --- domain pool --- *)

let test_pool_exception () =
  let pool = Pool.create ~lanes:2 in
  let touched = Array.make 8 false in
  let raised =
    try
      ignore
        (Pool.parallel_for pool ~grain:1 ~n:8 (fun lo hi ->
             for i = lo to hi - 1 do
               touched.(i) <- true
             done;
             if lo >= 4 then failwith "chunk boom"));
      false
    with Failure m -> m = "chunk boom"
  in
  check "worker exception re-raised on the caller" true raised;
  check "every chunk still ran before the re-raise" true
    (Array.for_all (fun b -> b) touched);
  (* the pool survives a failed dispatch *)
  let acc = Atomic.make 0 in
  ignore
    (Pool.parallel_for pool ~grain:1 ~n:4 (fun lo hi ->
         ignore (Atomic.fetch_and_add acc (hi - lo))));
  check_int "subsequent dispatch covers the whole range" 4 (Atomic.get acc);
  Pool.shutdown pool

let test_pool_nested () =
  let pool = Pool.create ~lanes:2 in
  let acc = Array.make 16 0 in
  ignore
    (Pool.parallel_for pool ~grain:1 ~n:4 (fun lo hi ->
         for i = lo to hi - 1 do
           (* a dispatch from inside a task finds the pool busy and runs
              sequentially on that task's lane — no deadlock, and every
              element exactly once *)
           ignore
             (Pool.parallel_for pool ~grain:1 ~n:4 (fun l h ->
                  for j = l to h - 1 do
                    acc.((i * 4) + j) <- acc.((i * 4) + j) + 1
                  done))
         done));
  check "nested dispatch touched every element exactly once" true
    (Array.for_all (fun v -> v = 1) acc);
  Pool.shutdown pool

let test_pool_bitwise_kernels () =
  let module Scalar = Functs_tensor.Scalar in
  let state = Random.State.make [| 11 |] in
  let a = T.rand state [| 37; 65 |] in
  let b = T.rand state [| 37; 65 |] in
  let m = T.rand state [| 19; 33 |] in
  let n = T.rand state [| 33; 21 |] in
  (* 13 and 16 rows chunk into whole 8-row tiles (13 = 8 + 4 + 1) *)
  let m13 = T.rand state [| 13; 40 |] and m16 = T.rand state [| 16; 40 |] in
  let n40 = T.rand state [| 40; 37 |] in
  let pool = Pool.create ~lanes:3 in
  let par = Scheduler.parallel_for pool ~kernel_grain:16 in
  (* each kernel once without a parallel-for and once with one: the
     pool must see dispatches only in the second run *)
  let same name f =
    let d0 = Pool.dispatches pool in
    let seq = T.to_flat_array (f None) in
    let d1 = Pool.dispatches pool in
    let chunked = T.to_flat_array (f (Some par)) in
    check
      (name ^ " is bitwise identical under intra-kernel chunking")
      true (seq = chunked);
    check
      (name ^ " dispatches to the pool only with a parallel-for")
      true
      (d1 = d0 && Pool.dispatches pool > d1)
  in
  same "binary add" (fun par -> Fastops.binary ?par Scalar.Add a b);
  same "matmul" (fun par -> Fastops.matmul ?par m n);
  same "matmul m=13" (fun par -> Fastops.matmul ?par m13 n40);
  same "matmul m=16" (fun par -> Fastops.matmul ?par m16 n40);
  same "softmax" (fun par -> Fastops.softmax ?par a ~dim:1);
  same "sum_dim" (fun par -> Fastops.sum_dim ?par a ~dim:1 ~keepdim:false);
  Pool.shutdown pool

let test_pool_shutdown_joins () =
  (* 150 create/shutdown cycles would blow OCaml's live-domain limit
     (~128) if shutdown leaked its workers. *)
  for _ = 1 to 150 do
    let pool = Pool.create ~lanes:2 in
    let acc = Atomic.make 0 in
    ignore
      (Pool.parallel_for pool ~grain:1 ~n:4 (fun lo hi ->
           ignore (Atomic.fetch_and_add acc (hi - lo))));
    check_int "range covered" 4 (Atomic.get acc);
    Pool.shutdown pool;
    Pool.shutdown pool (* idempotent *)
  done;
  let pool = Pool.create ~lanes:2 in
  Pool.shutdown pool;
  let covered = ref 0 in
  let went_parallel =
    Pool.parallel_for pool ~grain:1 ~n:8 (fun lo hi ->
        covered := !covered + (hi - lo))
  in
  check "post-shutdown dispatch degrades to sequential" false went_parallel;
  check_int "and still executes the whole range" 8 !covered

(* Task-claim contention: a 3-task outer dispatch whose task bodies
   nest a 1365-iteration inner range (run sequentially: the pool is
   busy), then
   a flat 171-task dispatch on which every lane races for the shared
   claim counter.  Every index must run exactly once, and each dispatch
   must add exactly its task count to worker_tasks + caller_tasks. *)
let test_pool_steal_stress () =
  let pool = Pool.create ~lanes:4 in
  Pool.set_chunk_bytes 64;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_chunk_bytes 0;
      Pool.shutdown pool)
    (fun () ->
      let tasks () = Pool.worker_tasks pool + Pool.caller_tasks pool in
      let outer = 3 and inner = 1365 in
      let hits = Array.init outer (fun _ -> Array.make inner 0) in
      let tasks0 = tasks () and nested0 = Pool.fallback_nested pool in
      for _ = 1 to 5 do
        Array.iter (fun row -> Array.fill row 0 inner 0) hits;
        ignore
          (Pool.parallel_for pool ~grain:1 ~n:outer (fun lo hi ->
               for i = lo to hi - 1 do
                 ignore
                   (Pool.parallel_for pool ~bytes_per_iter:8 ~grain:1
                      ~n:inner (fun l h ->
                        for j = l to h - 1 do
                          hits.(i).(j) <- hits.(i).(j) + 1
                        done))
               done));
        check "steal stress: every index exactly once" true
          (Array.for_all (Array.for_all (fun v -> v = 1)) hits)
      done;
      check_int "steal stress: one task per outer index" (5 * outer)
        (tasks () - tasks0);
      check_int "steal stress: every inner range ran nested" (5 * outer)
        (Pool.fallback_nested pool - nested0);
      let flat = Array.make inner 0 in
      let tasks1 = tasks () and disp1 = Pool.dispatches pool in
      check "steal stress: flat range dispatches" true
        (Pool.parallel_for pool ~bytes_per_iter:8 ~grain:1 ~n:inner
           (fun l h ->
             for j = l to h - 1 do
               flat.(j) <- flat.(j) + 1
             done));
      check "steal stress: flat range covered exactly once" true
        (Array.for_all (fun v -> v = 1) flat);
      check_int "steal stress: one dispatch" 1 (Pool.dispatches pool - disp1);
      (* 64-byte budget / 8 bytes per iteration = 8-iteration tasks *)
      check_int "steal stress: every task counted once"
        ((inner + 7) / 8) (tasks () - tasks1))

(* One job at a time across domains: three non-worker domains dispatch
   on the same 2-lane pool at once.  Whoever finds the pool busy runs its
   range sequentially (counted as nested); every index of every call
   still runs exactly once, nothing deadlocks, and the task bodies of two
   dispatched calls never interleave (their stamp windows on one global
   counter are disjoint). *)
let test_pool_concurrent_dispatchers () =
  let pool = Pool.create ~lanes:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let callers = 3 and calls = 200 and n = 64 in
      let stamp = Atomic.make 0 in
      let disp0 = Pool.dispatches pool
      and nested0 = Pool.fallback_nested pool
      and grain0 = Pool.fallback_grain pool in
      (* (covered exactly once, stamp windows of the dispatched calls) *)
      let caller () =
        let ok = ref true and windows = ref [] in
        for _ = 1 to calls do
          let hits = Array.make n 0 in
          let first = Array.make n max_int and last = Array.make n 0 in
          let went =
            Pool.parallel_for pool ~grain:1 ~n (fun lo hi ->
                first.(lo) <- Atomic.fetch_and_add stamp 1;
                for i = lo to hi - 1 do
                  hits.(i) <- hits.(i) + 1
                done;
                last.(lo) <- Atomic.fetch_and_add stamp 1)
          in
          if not (Array.for_all (fun v -> v = 1) hits) then ok := false;
          if went then
            windows :=
              (Array.fold_left min max_int first, Array.fold_left max 0 last)
              :: !windows
        done;
        (!ok, !windows)
      in
      let doms = List.init callers (fun _ -> Domain.spawn caller) in
      let results = List.map Domain.join doms in
      check "every index of every call ran exactly once" true
        (List.for_all fst results);
      let windows = List.sort compare (List.concat_map snd results) in
      let rec disjoint = function
        | (_, e1) :: ((s2, _) :: _ as rest) -> e1 < s2 && disjoint rest
        | _ -> true
      in
      check "dispatched calls never overlap" true (disjoint windows);
      check_int "no call fell below the grain" 0
        (Pool.fallback_grain pool - grain0);
      check_int "dispatches + nested fallbacks = calls that split"
        (callers * calls)
        (Pool.dispatches pool - disp0 + (Pool.fallback_nested pool - nested0)))

(* Range-coverage property at the grain edges, under a chunk budget
   small enough that the cost model, not the lane count, decides the
   task count. *)
let test_pool_grain_edges () =
  let pool = Pool.create ~lanes:4 in
  Pool.set_chunk_bytes 128;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_chunk_bytes 0;
      Pool.shutdown pool)
    (fun () ->
      let state = Random.State.make [| 2024 |] in
      let grain = 7 in
      let cases =
        [ 0; 1; grain; (2 * grain) - 1; 2 * grain ]
        @ List.init 8 (fun _ -> Random.State.int state 5000)
      in
      List.iter
        (fun n ->
          let hits = Array.make (max n 1) 0 in
          let went =
            Pool.parallel_for pool ~bytes_per_iter:16 ~grain ~n
              (fun lo hi ->
                for i = lo to hi - 1 do
                  hits.(i) <- hits.(i) + 1
                done)
          in
          if n = 0 then
            check "empty range never dispatches" false went;
          check
            (Printf.sprintf "n=%d covered exactly once" n)
            true
            (Array.for_all (fun v -> v = 1) (Array.sub hits 0 n)))
        cases)

(* One job at a time: tasks of an under-subscribed dispatch (fewer tasks
   than lanes) find the pool busy, so their inner dispatches run
   sequentially on the task's lane — and so does anything nested deeper. *)
let test_pool_nested_undersubscribed () =
  let pool = Pool.create ~lanes:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let inner_went = Array.make 2 true in
      let deep_went = ref false in
      let hits = Array.make 128 0 in
      let nested0 = Pool.fallback_nested pool in
      check "outer range dispatches" true
        (Pool.parallel_for pool ~grain:1 ~n:2 (fun lo hi ->
             for i = lo to hi - 1 do
               inner_went.(i) <-
                 Pool.parallel_for pool ~grain:1 ~n:64 (fun l h ->
                     for j = l to h - 1 do
                       hits.((i * 64) + j) <- hits.((i * 64) + j) + 1;
                       if
                         Pool.parallel_for pool ~grain:1 ~n:4 (fun _ _ -> ())
                       then deep_went := true
                     done)
             done));
      check "inner dispatches run sequentially" false
        (Array.exists (fun b -> b) inner_went);
      check "deeper dispatches run sequentially" false !deep_went;
      check_int "every nested call counted as nested" (2 + 128)
        (Pool.fallback_nested pool - nested0);
      check "nested ranges covered exactly once" true
        (Array.for_all (fun v -> v = 1) hits))

(* A carried-store loop: the lstm pattern whose per-iteration whole-tensor
   clone the donation path eliminates.  Engine output must still match. *)
let carried_store_graph () =
  let b =
    Builder.create "carried"
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let t = Builder.clone b x in
  let one = Builder.float b 1.0 in
  let outs =
    Builder.loop b ~trip:n ~init:[ t ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ v ] ->
            let row = Builder.op1 b (Op.Access (Op.Select { dim = 0 })) [ v; i ] in
            let s = Builder.add b row one in
            let v' =
              Builder.op1 b (Op.Assign (Op.Select { dim = 0 })) [ v; s; i ]
            in
            [ v' ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

(* --- compile cache --- *)

let cache_counters () =
  let c = Compiler_profile.cache_snapshot () in
  ( c.Compiler_profile.cache_hits,
    c.Compiler_profile.cache_misses,
    c.Compiler_profile.cache_evictions )

let test_cache_hit_same_shape () =
  Engine.clear_cache ();
  Compiler_profile.reset_compile_cache ();
  let g = carried_store_graph () in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let args () = [ Value.Tensor (T.ones [| 6; 4 |]); Value.Int 6 ] in
  let shapes = Engine.input_shapes (args ()) in
  let e1 = Engine.prepare ~parallel:false fg ~inputs:shapes in
  let e2 = Engine.prepare ~parallel:false fg ~inputs:shapes in
  let hits, misses, _ = cache_counters () in
  check_int "first prepare misses" 1 misses;
  check_int "second prepare hits" 1 hits;
  check "the hit returns the already-lowered engine" true (e1 == e2);
  let expected = Eval.run g (args ()) in
  let ok = Equiv.bitwise expected in
  check "cold engine matches the interpreter" true
    (ok (Engine.run e1 (args ())));
  check "warm engine matches the interpreter" true
    (ok (Engine.run e2 (args ())))

let test_cache_shape_miss () =
  Engine.clear_cache ();
  Compiler_profile.reset_compile_cache ();
  let g = carried_store_graph () in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let args shape trip = [ Value.Tensor (T.ones shape); Value.Int trip ] in
  let prep shape trip =
    Engine.prepare ~parallel:false fg
      ~inputs:(Engine.input_shapes (args shape trip))
  in
  let e1 = prep [| 6; 4 |] 6 in
  let e2 = prep [| 9; 3 |] 9 in
  let hits, misses, _ = cache_counters () in
  check_int "a changed input shape misses" 2 misses;
  check_int "and never hits" 0 hits;
  check "the recompile is a distinct engine" true (not (e1 == e2));
  let expected = Eval.run g (args [| 9; 3 |] 9) in
  check "the recompiled engine matches the interpreter on the new shape"
    true
    (Equiv.bitwise expected (Engine.run e2 (args [| 9; 3 |] 9)))

(* The accept rule checks kinds by the parameter types, not only the
   tensor shapes: a scalar where a tensor was compiled (or the reverse)
   is refused with the argument named, and [Engine.run] raises on it. *)
let test_check_arg_kinds () =
  let g = carried_store_graph () in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let x = Value.Tensor (T.ones [| 6; 4 |]) in
  let native = [ x; Value.Int 6 ] in
  let shapes = Engine.input_shapes native in
  let e = Engine.prepare ~parallel:false ~cache:false fg ~inputs:shapes in
  let contains m sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length m && (String.sub m i n = sub || at (i + 1))
    in
    at 0
  in
  check "native arguments pass" true
    (Engine.check_args fg shapes native = Ok ());
  List.iter
    (fun (what, args, names) ->
      (match Engine.check_args fg shapes args with
      | Ok () -> Alcotest.failf "%s was accepted" what
      | Error m ->
          check (what ^ ": the message names the argument and kinds") true
            (List.for_all (contains m) names));
      match Engine.run e args with
      | _ -> Alcotest.failf "%s: Engine.run returned" what
      | exception Eval.Runtime_error _ -> ())
    [
      ("an int for the tensor", [ Value.Int 6; Value.Int 6 ],
       [ "argument 0"; "an int"; "Tensor" ]);
      ("a tensor for the int", [ x; x ], [ "argument 1"; "a tensor"; "int" ]);
      ("a float for the int", [ x; Value.Float 6. ], [ "argument 1" ]);
    ]

let test_cache_eviction () =
  Engine.set_cache_capacity 2;
  Engine.clear_cache ();
  Compiler_profile.reset_compile_cache ();
  let fg = Graph.clone (carried_store_graph ()) in
  ignore (Passes.tensorssa_pipeline fg);
  let prep rows =
    ignore
      (Engine.prepare ~parallel:false fg
         ~inputs:
           (Engine.input_shapes
              [ Value.Tensor (T.ones [| rows; 4 |]); Value.Int rows ]))
  in
  List.iter prep [ 3; 4; 5; 6 ];
  let _, misses, evictions = cache_counters () in
  Engine.set_cache_capacity Functs.Config.default.Functs.Config.cache_size;
  check_int "four distinct shapes all miss" 4 misses;
  check_int "capacity 2 evicts the two oldest" 2 evictions;
  check "residency is bounded by capacity" true (Engine.cache_size () <= 2);
  Engine.clear_cache ()

let test_donation_loop () =
  let g = carried_store_graph () in
  let args () = [ Value.Tensor (T.ones [| 6; 4 |]); Value.Int 6 ] in
  let expected = Eval.run g (args ()) in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let eng = Engine.prepare ~parallel:false fg ~inputs:(Engine.input_shapes (args ())) in
  let got = Engine.run eng (args ()) in
  check "engine matches interpreter" true
    (Equiv.bitwise expected got);
  let s = Engine.stats eng in
  check "later iterations donate in place" true (s.Scheduler.donations >= 4)

let test_engine_never_mutates_args () =
  let g = carried_store_graph () in
  let input = T.ones [| 6; 4 |] in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let eng =
    Engine.prepare fg
      ~inputs:(Engine.input_shapes [ Value.Tensor input; Value.Int 6 ])
  in
  ignore (Engine.run eng [ Value.Tensor input; Value.Int 6 ]);
  check "caller tensor untouched" true
    (T.allclose input (T.ones [| 6; 4 |]))

(* --- a clone of a dying temporary reuses it ---

   [aten::clone] binds its input itself when the input is an unpinned
   temporary at its last use, alone on a whole contiguous storage.  So
   [clone(sigmoid x)] allocates one buffer per run, not two, and counts
   no donation.  A clone of a caller argument, of a view, or of a value
   used later still copies. *)
let clone_engine body input =
  let b = Builder.create "clone" ~params:[ ("x", Dtype.Tensor) ] in
  Builder.return b (body b (Builder.param b 0));
  let g = Builder.graph b in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let args = [ Value.Tensor input ] in
  let eng =
    Engine.prepare ~parallel:false ~cache:false ~jit:Functs_jit.Jit.Off fg
      ~inputs:(Engine.input_shapes args)
  in
  let got = Engine.run eng [ Value.Tensor input ] in
  check "bitwise vs the interpreter" true
    (Equiv.bitwise (Eval.run g [ Value.Tensor (T.clone input) ]) got);
  (List.map Value.to_tensor got, Engine.stats eng)

let test_clone_reuses_dying_temporary () =
  let input = T.of_array [| 6; 4 |] (Array.init 24 float_of_int) in
  let allocs (s : Scheduler.stats) = s.pool_fresh + s.pool_reused in
  let _, s = clone_engine (fun b x -> [ Builder.clone b (Builder.sigmoid b x) ]) input in
  check_int "one buffer: the clone is the sigmoid's" 1 (allocs s);
  check_int "not a donation" 0 s.donations;
  let got, s = clone_engine (fun b x -> [ Builder.clone b x ]) input in
  check "a caller argument is copied" false
    (T.same_storage (List.hd got) input);
  check_int "into a buffer of its own" 1 (allocs s);
  check "and left untouched" true
    (T.allclose input (T.of_array [| 6; 4 |] (Array.init 24 float_of_int)));
  let got, _ =
    clone_engine
      (fun b x ->
        let v =
          Builder.slice b (Builder.sigmoid b x) ~dim:0 ~start:(Builder.int b 1)
            ~stop:(Builder.int b 3) ()
        in
        [ Builder.clone b v ])
      input
  in
  let c = List.hd got in
  check "a view is copied to a compact tensor" true
    (c.T.offset = 0
    && Functs_tensor.Storage.length c.T.storage = T.numel c);
  let got, _ =
    clone_engine
      (fun b x ->
        let t = Builder.sigmoid b x in
        let c = Builder.clone b t in
        [ c; Builder.slice b t ~dim:0 ~start:(Builder.int b 0)
                ~stop:(Builder.int b 2) () ])
      input
  in
  match got with
  | [ c; d ] ->
      check "a value used later is copied" false (T.same_storage c d)
  | _ -> Alcotest.fail "two outputs expected"

(* Parallel-loop detection: returns must hand each slot its own version.
   A loop swapping its two carried tensors passes the per-use rules but
   has a genuine cross-iteration dependence. *)
let two_carried_graph ~swap =
  let b =
    Builder.create
      (if swap then "swap" else "straight")
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let a = Builder.clone b x in
  let c = Builder.clone b x in
  let one = Builder.float b 1.0 in
  let outs =
    Builder.loop b ~trip:n ~init:[ a; c ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ p; q ] ->
            let row = Builder.op1 b (Op.Access (Op.Select { dim = 0 })) [ p; i ] in
            let s = Builder.add b row one in
            let p' =
              Builder.op1 b (Op.Assign (Op.Select { dim = 0 })) [ p; s; i ]
            in
            if swap then [ q; p' ] else [ p'; q ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

let loop_node g =
  List.find (fun (n : Graph.node) -> n.n_op = Op.Loop) (Graph.all_nodes g)

let test_parallel_slot_consistency () =
  let straight = two_carried_graph ~swap:false in
  let swapped = two_carried_graph ~swap:true in
  let plan g = Fusion.plan Compiler_profile.tensorssa g in
  check "slot-consistent loop parallelizes" true
    (Fusion.is_parallel_loop (plan straight) (loop_node straight));
  check "slot-crossing loop is sequential" false
    (Fusion.is_parallel_loop (plan swapped) (loop_node swapped));
  (* and both still execute correctly through the engine *)
  let args () = [ Value.Tensor (T.ones [| 5; 4 |]); Value.Int 5 ] in
  check "swap semantics preserved" true (agrees swapped args);
  check "straight semantics preserved" true (agrees straight args)

(* --- adversarial dependence analysis ---
   Each graph below is crafted to look batchable while hiding a genuine
   cross-iteration dependence; the classifier must refuse (with a reason)
   and the engine must still match the interpreter through the
   sequential path. *)

let seq_reason g =
  let plan = Fusion.plan Compiler_profile.tensorssa g in
  match Fusion.loop_verdict plan (loop_node g) with
  | Loop_par.Sequential m -> Some m
  | Loop_par.Parallel _ | Loop_par.Reduction _ -> None

(* Iteration i writes rows [i, i+2): consecutive iterations overlap on a
   shared row, so iteration order is observable. *)
let overlapping_slice_graph () =
  let b =
    Builder.create "overlap"
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let t = Builder.clone b x in
  let one = Builder.float b 1.0 in
  let outs =
    Builder.loop b ~trip:n ~init:[ t ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ v ] ->
            let hi = Builder.scalar_binary b Functs_tensor.Scalar.Add i (Builder.int b 2) in
            let win =
              Builder.op1 b (Op.Access (Op.Slice { dim = 0; step = 1 })) [ v; i; hi ]
            in
            let s = Builder.add b win one in
            [ Builder.op1 b (Op.Assign (Op.Slice { dim = 0; step = 1 })) [ v; s; i; hi ] ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

(* Iteration i writes rows {i, i+2} through a step-2 slice: iterations i
   and i+2 alias even though each window looks i-indexed. *)
let strided_alias_graph () =
  let b =
    Builder.create "strided"
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let t = Builder.clone b x in
  let one = Builder.float b 1.0 in
  let outs =
    Builder.loop b ~trip:n ~init:[ t ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ v ] ->
            let hi = Builder.scalar_binary b Functs_tensor.Scalar.Add i (Builder.int b 4) in
            let win =
              Builder.op1 b (Op.Access (Op.Slice { dim = 0; step = 2 })) [ v; i; hi ]
            in
            let s = Builder.add b win one in
            [ Builder.op1 b (Op.Assign (Op.Slice { dim = 0; step = 2 })) [ v; s; i; hi ] ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

(* acc = acc - x[i] is order-sensitive: Sub must not be treated as an
   associative reduction. *)
let reduction_graph op =
  let b =
    Builder.create
      ("red_" ^ Functs_tensor.Scalar.binary_name op)
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let acc0 =
    Builder.clone b
      (Builder.op1 b (Op.Access (Op.Select { dim = 0 })) [ x; Builder.int b 0 ])
  in
  let outs =
    Builder.loop b ~trip:n ~init:[ acc0 ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ acc ] ->
            let row = Builder.op1 b (Op.Access (Op.Select { dim = 0 })) [ x; i ] in
            [ Builder.binary b op acc row ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_adversarial_sequential () =
  let expect name g sub =
    match seq_reason g with
    | Some m ->
        check (name ^ " reason mentions " ^ sub) true (contains ~sub m)
    | None -> Alcotest.fail (name ^ " wrongly classified batchable")
  in
  expect "overlapping slices" (overlapping_slice_graph ()) "disjoint";
  expect "stride-aliased views" (strided_alias_graph ()) "disjoint";
  expect "non-associative accumulator"
    (reduction_graph Functs_tensor.Scalar.Sub)
    "non-associative";
  (* crossed carried slots (the swap graph of the slot-consistency test) *)
  expect "crossed carried slots" (two_carried_graph ~swap:true) "crossed";
  (* and every refused loop still executes correctly (sequential path) *)
  let args () = [ Value.Tensor (T.ones [| 8; 4 |]); Value.Int 4 ] in
  check "overlap semantics preserved" true (agrees (overlapping_slice_graph ()) args);
  check "strided semantics preserved" true (agrees (strided_alias_graph ()) args);
  let rargs () = [ Value.Tensor (T.ones [| 8; 4 |]); Value.Int 8 ] in
  check "sub-accumulator semantics preserved" true
    (agrees (reduction_graph Functs_tensor.Scalar.Sub) rargs)

(* Batched execution must be bitwise-identical: a Parallel loop on the
   sequential engine vs batched at domains=1 and domains=4.  Reduction
   loops run [seq] at every lane count, so Max and Add reductions on the
   batching engine reproduce the sequential engine's bits too.  Each
   engine is fresh and runs once, so its cumulative stats are that
   run's. *)
let bitwise_outputs ?(parallel = true) g ~domains args =
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let eng =
    Engine.prepare ~parallel ~domains ~cache:false fg
      ~inputs:(Engine.input_shapes args)
  in
  let out = Engine.run eng args in
  (out, Engine.stats eng)

let test_batched_bitwise () =
  let state = Random.State.make [| 99 |] in
  let x = T.rand state [| 12; 16 |] in
  let args trip () = [ Value.Tensor (T.clone x) ; Value.Int trip ] in
  (* A tiny per-task cache budget forces many tasks, so these gates
     exercise lanes racing for the shared claim counter, not just the
     two-chunk split. *)
  Pool.set_chunk_bytes 256;
  Fun.protect ~finally:(fun () -> Pool.set_chunk_bytes 0)
  @@ fun () ->
  (* [reference] against batched runs at each of [domains]: the stats of
     each batched run, in order *)
  let bitwise name g trip reference domains =
    let o0, _ = reference g trip in
    List.map
      (fun d ->
        let o, s = bitwise_outputs g ~domains:d (args trip ()) in
        check
          (Printf.sprintf "%s bitwise at domains=%d" name d)
          true
          (Equiv.bitwise o0 o);
        s)
      domains
  in
  let sequential g trip =
    bitwise_outputs ~parallel:false g ~domains:1 (args trip ())
  in
  (match bitwise "parallel loop" (carried_store_graph ()) 12 sequential [ 1; 4 ] with
  | [ s1; s4 ] ->
      check "domains=1 run batched the loop" true
        (s1.Scheduler.parallel_loops_run >= 1);
      check "domains=4 run batched the loop" true
        (s4.Scheduler.parallel_loops_run >= 1)
  | _ -> assert false);
  let sm =
    bitwise "max reduction" (reduction_graph Functs_tensor.Scalar.Max) 12
      sequential [ 1; 4 ]
    @ bitwise "add reduction" (reduction_graph Functs_tensor.Scalar.Add) 12
        sequential [ 2; 4 ]
  in
  check "no reduction loop ran batched" true
    (List.for_all (fun s -> s.Scheduler.parallel_loops_run = 0) sm);
  (* the reduction is a site on [seq], so its time is attributed *)
  let fg = Graph.clone (reduction_graph Functs_tensor.Scalar.Max) in
  ignore (Passes.tensorssa_pipeline fg);
  let eng =
    Engine.prepare ~parallel:true ~domains:1 ~cache:false fg
      ~inputs:(Engine.input_shapes (args 12 ()))
  in
  ignore (Engine.run eng (args 12 ()));
  check "the reduction site reads seq, one launch" true
    (List.exists
       (fun (r : Scheduler.attribution_row) ->
         r.Scheduler.at_kind = `Loop && r.Scheduler.at_arm = "seq"
         && r.Scheduler.at_launches = 1)
       (Engine.attribution eng));
  (* batched max still equals the interpreter exactly: elementwise Max is
     exactly associative *)
  let g = reduction_graph Functs_tensor.Scalar.Max in
  let expected = Eval.run g (args 12 ()) in
  let got, _ = bitwise_outputs g ~domains:4 (args 12 ()) in
  check "max reduction bitwise vs interpreter" true
    (Equiv.bitwise expected got)

(* [v[i + 0] = v[i + 0] + 1] on the caller's tensor: like
   [carried_store_graph], but the induction variable goes through
   arithmetic, which the vectorised plan refuses — so it batches on the
   [batched] arm — and the init is a graph parameter, which a batched run
   must clone. *)
let carried_arith_graph () =
  let b =
    Builder.create "carried_arith"
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let one = Builder.float b 1.0 in
  let outs =
    Builder.loop b ~trip:n ~init:[ x ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ v ] ->
            let idx =
              Builder.scalar_binary b Functs_tensor.Scalar.Add i (Builder.int b 0)
            in
            let row = Builder.op1 b (Op.Access (Op.Select { dim = 0 })) [ v; idx ] in
            let s = Builder.add b row one in
            [ Builder.op1 b (Op.Assign (Op.Select { dim = 0 })) [ v; s; idx ] ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

(* Hold [pool] busy with a job on another domain while [f] runs: a
   [Pool.parallel_for] issued meanwhile runs its whole range on its
   caller (counted in [Pool.fallback_nested]). *)
let with_pool_busy pool f =
  let started = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        ignore
          (Pool.parallel_for pool ~grain:1 ~n:2 (fun _ _ ->
               Atomic.set started true;
               while not (Atomic.get release) do
                 Unix.sleepf 0.0005
               done)))
  in
  while not (Atomic.get started) do
    Unix.sleepf 0.0005
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join holder)
    f

(* The batched arm hands its chunks to [Pool.parallel_for].  Chunks on
   the run's own domain draw their iteration scratch from the engine's
   storage pool and return it, so once the pool is warm a batched run
   reuses a buffer per iteration.  Every buffer a batched run allocates
   is counted — the clone of the carried init too — and on the caller
   the only fresh one is the clone, which leaves with the output.

   One lane: a body without a vectorised plan runs the [batched] arm
   (its chunked plan) on every run, every chunk on the caller.

   Two lanes, the loop forced to [batched]: a trip the pool splits
   across lanes (worker chunks allocate fresh), and trips it runs whole
   on the caller because another job holds the pool; all match the
   sequential engine bitwise. *)
let test_batched_scratch_recycled () =
  let trip = 12 in
  let x = T.rand (Random.State.make [| 5 |]) [| trip; 16 |] in
  let args () = [ Value.Tensor (T.clone x); Value.Int trip ] in
  let engine domains =
    let fg = Graph.clone (carried_arith_graph ()) in
    ignore (Passes.tensorssa_pipeline fg);
    Engine.prepare ~parallel:true ~domains ~cache:false fg
      ~inputs:(Engine.input_shapes (args ()))
  in
  let eng = engine 1 in
  let run () =
    ignore (Engine.run eng (args ()));
    Engine.stats eng
  in
  let caller_scratch_pooled what (prev : Scheduler.stats) (s : Scheduler.stats) =
    check_int (what ^ ": the one fresh buffer is the output")
      (prev.Scheduler.pool_fresh + 1) s.Scheduler.pool_fresh;
    check (what ^ ": every iteration reused a pooled buffer") true
      (s.Scheduler.pool_reused - prev.Scheduler.pool_reused >= trip)
  in
  check_int "the body never runs vectorised" 0
    (run ()).Scheduler.vector_loops;
  let prev = ref (run ()) in
  for _ = 3 to 6 do
    let s = run () in
    check_int "domains=1: every run batches the loop"
      (!prev.Scheduler.parallel_loops_run + 1)
      s.Scheduler.parallel_loops_run;
    caller_scratch_pooled "one lane" !prev s;
    prev := s
  done;
  check_int "the loop is on the batched arm" 1
    !prev.Scheduler.loops_pinned_batched;
  (* two lanes *)
  let reference, _ =
    bitwise_outputs ~parallel:false (carried_arith_graph ()) ~domains:1 (args ())
  in
  let eng = engine 2 and pool = Pool.shared ~lanes:2 in
  ignore (Engine.run eng (args ()));
  (match
     List.find_opt
       (fun (r : Scheduler.attribution_row) -> r.Scheduler.at_kind = `Loop)
       (Engine.attribution eng)
   with
  | Some r -> Engine.force eng (`Loop, r.Scheduler.at_id) `Batched
  | None -> Alcotest.fail "the loop never batched");
  let batched_run what =
    let s0 = Engine.stats eng in
    let out = Engine.run eng (args ()) in
    let s = Engine.stats eng in
    check (what ^ ": bitwise vs the sequential engine") true
      (Equiv.bitwise reference out);
    check_int (what ^ ": batched") (s0.Scheduler.parallel_loops_run + 1)
      s.Scheduler.parallel_loops_run;
    (s0, s)
  in
  let d0 = Pool.dispatches pool in
  ignore (batched_run "two lanes, split");
  check "the pool split the trip" true (Pool.dispatches pool > d0);
  let on_caller () =
    with_pool_busy pool (fun () -> batched_run "two lanes, on the caller")
  in
  let n0 = Pool.fallback_nested pool in
  (* the split runs may have left no chunk on the caller: warm up *)
  ignore (on_caller ());
  let s0, s = on_caller () in
  check "the pool ran the trip on the caller" true
    (Pool.fallback_nested pool >= n0 + 2);
  caller_scratch_pooled "two lanes, on the caller" s0 s

(* --- vectorised loop plans ---

   Hand-built Parallel loops for each case the vectorised plan accepts
   and each it must refuse.  Every loop runs a dozen times at domains 1
   and 2 and must match the sequential engine bitwise each time;
   accepted loops run vectorised, refused ones never do but still
   batch. *)

let vtrip = 6

(* [loop_graph name params init body]: params are tensors then [n];
   [body b ~i v ps] returns the next carried value. *)
let loop_graph name tensors ~init body =
  let b =
    Builder.create name
      ~params:(List.map (fun p -> (p, Dtype.Tensor)) tensors
              @ [ ("n", Dtype.Scalar Dtype.Int) ])
  in
  let ps = List.mapi (fun k _ -> Builder.param b k) tensors in
  let n = Builder.param b (List.length tensors) in
  let outs =
    Builder.loop b ~trip:n ~init:[ Builder.clone b (List.nth ps init) ]
      ~body:(fun ~i ~carried ->
        match carried with [ v ] -> [ body b ~i v ps ] | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

let access b kind ops = Builder.op1 b (Op.Access kind) ops
let assign b kind ops = Builder.op1 b (Op.Assign kind) ops
let sel dim = Op.Select { dim }
let slc dim = Op.Slice { dim; step = 1 }

let vector_cases =
  [
    (* v[i] = v[i] + 1: the source is the region itself *)
    ( "same-view update", [ [| vtrip; 16 |] ], true,
      loop_graph "vec_same" [ "x" ] ~init:0 (fun b ~i v _ ->
          let row = access b (sel 0) [ v; i ] in
          assign b (sel 0) [ v; Builder.add b row (Builder.float b 1.0); i ]) );
    (* v[i] = x[i] + g, x[i] : [16], g : [1, 16]: the vector operand
       gains a unit dim after the iteration axis *)
    ( "rank alignment", [ [| vtrip; 1; 16 |]; [| vtrip; 16 |]; [| 1; 16 |] ],
      true,
      loop_graph "vec_align" [ "v"; "x"; "g" ] ~init:0 (fun b ~i v ps ->
          let xi = access b (sel 0) [ List.nth ps 1; i ] in
          assign b (sel 0) [ v; Builder.add b xi (List.nth ps 2); i ]) );
    (* yolov3's grids[s]: an invariant input selected by i *)
    ( "invariant input selected by i", [ [| vtrip; 16 |]; [| vtrip; 16 |] ],
      true,
      loop_graph "vec_grid" [ "x"; "g" ] ~init:0 (fun b ~i v ps ->
          let row = Builder.sigmoid b (access b (sel 0) [ v; i ]) in
          let gi = access b (sel 0) [ List.nth ps 1; i ] in
          assign b (sel 0) [ v; Builder.add b row gi; i ]) );
    (* v[i, 0:2] = 3.0: a scalar fill *)
    ( "scalar fill", [ [| vtrip; 16 |] ], true,
      loop_graph "vec_fill" [ "x" ] ~init:0 (fun b ~i v _ ->
          let row = access b (sel 0) [ v; i ] in
          let lo = Builder.int b 0 and hi = Builder.int b 2 in
          let inner = assign b (slc 0) [ row; Builder.float b 3.0; lo; hi ] in
          assign b (sel 0) [ v; inner; i ]) );
    (* v[i, 0:3] = v[i, 3:6]: the source aliases its own iteration's
       region of the shared buffer *)
    ( "source aliasing its region", [ [| vtrip; 16 |] ], true,
      loop_graph "vec_alias" [ "x" ] ~init:0 (fun b ~i v _ ->
          let row = access b (sel 0) [ v; i ] in
          let src = access b (slc 0) [ row; Builder.int b 3; Builder.int b 6 ] in
          let inner =
            assign b (slc 0) [ row; src; Builder.int b 0; Builder.int b 3 ]
          in
          assign b (sel 0) [ v; inner; i ]) );
    (* v[i, 1:4] = v[i, 0:3] * 2: the op's operand overlaps the region
       it would compute into, so it must not compute in place *)
    ( "op on a shifted view of its region", [ [| vtrip; 16 |] ], true,
      loop_graph "vec_shift" [ "x" ] ~init:0 (fun b ~i v _ ->
          let row = access b (sel 0) [ v; i ] in
          let src = access b (slc 0) [ row; Builder.int b 0; Builder.int b 3 ] in
          let scaled = Builder.mul b src (Builder.float b 2.0) in
          let inner =
            assign b (slc 0) [ row; scaled; Builder.int b 1; Builder.int b 4 ]
          in
          assign b (sel 0) [ v; inner; i ]) );
    (* v[:, i][1:3] *= 2 through dims counted from the end *)
    ( "negative dims", [ [| 4; vtrip |] ], true,
      loop_graph "vec_negdim" [ "x" ] ~init:0 (fun b ~i v _ ->
          let col = access b (sel (-1)) [ v; i ] in
          let lo = Builder.int b 1 and hi = Builder.int b 3 in
          let part = access b (slc (-1)) [ col; lo; hi ] in
          let scaled = Builder.mul b part (Builder.float b 2.0) in
          let inner = assign b (slc (-1)) [ col; scaled; lo; hi ] in
          assign b (sel (-1)) [ v; inner; i ]) );
    (* refused: the induction variable in arithmetic *)
    ("i in arithmetic", [ [| vtrip; 16 |] ], false, carried_arith_graph ());
    (* refused: a matmul on an iteration-dependent value *)
    ( "matmul on an i-dependent value", [ [| vtrip; 16 |]; [| 16; 16 |] ],
      false,
      loop_graph "vec_matmul" [ "x"; "w" ] ~init:0 (fun b ~i v ps ->
          let row = access b (sel 0) [ v; i ] in
          assign b (sel 0) [ v; Builder.matmul b row (List.nth ps 1); i ]) );
  ]

let test_vector_plans () =
  let state = Random.State.make [| 31 |] in
  List.iter
    (fun (name, shapes, accepted, g) ->
      let xs = List.map (fun sh -> T.rand state sh) shapes in
      let args () =
        List.map (fun t -> Value.Tensor (T.clone t)) xs @ [ Value.Int vtrip ]
      in
      let reference, _ = bitwise_outputs ~parallel:false g ~domains:1 (args ()) in
      check (name ^ ": the sequential engine matches the interpreter") true
        (Equiv.bitwise (Eval.run g (args ())) reference);
      List.iter
        (fun domains ->
          let fg = Graph.clone g in
          ignore (Passes.tensorssa_pipeline fg);
          let eng =
            Engine.prepare ~parallel:true ~domains ~cache:false fg
              ~inputs:(Engine.input_shapes (args ()))
          in
          let what fmt = Printf.sprintf ("%s at domains=%d: " ^^ fmt) name domains in
          for run = 1 to 12 do
            let got = Engine.run eng (args ()) in
            check
              (what "run %d bitwise vs the sequential engine" run)
              true
              (Equiv.bitwise reference got);
            if run = 1 then
              check_int (what "the first run is vectorised")
                (if accepted then 1 else 0)
                (Engine.stats eng).Scheduler.vector_loops
          done;
          let s = Engine.stats eng in
          check (what "the loop batched") true
            (s.Scheduler.parallel_loops_run >= 1);
          if not accepted then
            check_int (what "never vectorised") 0 s.Scheduler.vector_loops)
        [ 1; 2 ])
    vector_cases;
  (* A trip past the selected extent fails the bounds check before any
     write: the run falls back to the batched arm, which raises what the
     sequential engine raises. *)
  let g = carried_store_graph () in
  let args () = [ Value.Tensor (T.ones [| vtrip; 16 |]); Value.Int (vtrip + 1) ] in
  let outcome ~parallel =
    match bitwise_outputs ~parallel g ~domains:1 (args ()) with
    | _ -> "no error"
    | exception e -> Printexc.to_string e
  in
  let expected = outcome ~parallel:false in
  check "a trip past the extent fails sequentially" true (expected <> "no error");
  Alcotest.(check string)
    "the vector arm fails the same way" expected (outcome ~parallel:true)

(* yolact's loop carries [m = sigmoid(logits).clone()], whose only use is
   the loop: a batched run adopts it as the shared buffer instead of
   cloning it — one donation per run on the [batched] arm, which runs
   the loop's vectorised plan. *)
let test_batched_loop_donates_init () =
  let w =
    match Functs_workloads.Registry.find "yolact" with
    | Some w -> w
    | None -> Alcotest.fail "yolact workload missing"
  in
  let batch = w.Functs_workloads.Workload.default_batch
  and seq = w.Functs_workloads.Workload.default_seq in
  let g = Functs_workloads.Workload.graph w ~batch ~seq in
  let args = w.Functs_workloads.Workload.inputs ~batch ~seq in
  let expected = Eval.run g args in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let eng =
    Engine.prepare ~parallel:true ~domains:1 ~cache:false fg
      ~inputs:(Engine.input_shapes args)
  in
  List.iter
    (fun (n : Graph.node) ->
      if n.Graph.n_op = Op.Loop then
        Engine.force eng (`Loop, n.Graph.n_id) `Batched)
    (Graph.all_nodes fg);
  List.iter
    (fun run ->
      let got = Engine.run eng args in
      let s = Engine.stats eng in
      check
        (Printf.sprintf "run %d bitwise vs the interpreter" run)
        true
        (Equiv.bitwise expected got);
      check_int (Printf.sprintf "run %d batched" run) run
        s.Scheduler.parallel_loops_run;
      check_int (Printf.sprintf "run %d donated once per run" run) run
        s.Scheduler.donations)
    [ 1; 2 ];
  check_int "every run was vectorised" 2
    (Engine.stats eng).Scheduler.vector_loops

(* The sequential engine (no lanes, JIT off) reproduces the interpreter
   bitwise on every registry workload at batch 1 and 4, on a cold run
   and on a warm one that reuses the engine's pooled buffers.  The
   forced-arm suite runs the same engine once per arm; lanes and the JIT
   are its alone. *)
let test_workloads_equivalent () =
  let module W = Functs_workloads.Workload in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun batch ->
          let seq = w.W.default_seq in
          let g = W.graph w ~batch ~seq in
          let args () = w.W.inputs ~batch ~seq in
          let expected = Eval.run g (args ()) in
          let fg = Graph.clone g in
          ignore (Passes.tensorssa_pipeline fg);
          let eng =
            Engine.prepare ~parallel:false ~cache:false ~jit:Functs_jit.Jit.Off
              fg ~inputs:(Engine.input_shapes (args ()))
          in
          List.iter
            (fun run ->
              check
                (Printf.sprintf "%s b%d %s run bitwise" w.W.name batch run)
                true
                (Equiv.bitwise expected (Engine.run eng (args ()))))
            [ "cold"; "warm" ])
        [ 1; 4 ])
    (Functs_workloads.Registry.all @ Functs_workloads.Registry.extensions)

(* Loop arms come from a rule, not from timings, so they reproduce: at
   batch 1 with the JIT off, ten fresh engines per workload, each run
   three times, read the same arm on every loop site, and it is the
   rule's — [batched] on a [Parallel] loop, [seq] on a [Reduction] one
   (a [Sequential] loop has no site without a loop kernel). *)
let test_loop_arms_reproduce () =
  let module W = Functs_workloads.Workload in
  List.iter
    (fun (w : W.t) ->
      let batch = 1 and seq = w.W.default_seq in
      let args () = w.W.inputs ~batch ~seq in
      let inputs = Engine.input_shapes (args ()) in
      let fg = Graph.clone (W.graph w ~batch ~seq) in
      ignore (Passes.tensorssa_pipeline ~inputs fg);
      let plan = Engine.plan fg in
      let rule id =
        match
          List.find_opt
            (fun (n : Graph.node) -> n.Graph.n_id = id)
            (Graph.all_nodes fg)
        with
        | None -> "no such node"
        | Some n -> (
            match Fusion.loop_verdict plan n with
            | Loop_par.Parallel _ -> "batched"
            | Loop_par.Reduction _ -> "seq"
            | Loop_par.Sequential _ -> "no site")
      in
      let arms () =
        let eng =
          Engine.prepare ~parallel:true ~cache:false ~jit:Functs_jit.Jit.Off fg
            ~inputs
        in
        for _ = 1 to 3 do
          ignore (Engine.run eng (args ()))
        done;
        List.sort compare
          (List.filter_map
             (fun (r : Scheduler.attribution_row) ->
               if r.Scheduler.at_kind = `Loop then
                 Some (r.Scheduler.at_id, r.Scheduler.at_arm)
               else None)
             (Engine.attribution eng))
      in
      let first = arms () in
      List.iter
        (fun (id, arm) ->
          Alcotest.(check string)
            (Printf.sprintf "%s loop#%d runs the rule's arm" w.W.name id)
            (rule id) arm)
        first;
      for k = 2 to 10 do
        check
          (Printf.sprintf "%s engine %d reads the same arms" w.W.name k)
          true
          (arms () = first)
      done)
    (Functs_workloads.Registry.all @ Functs_workloads.Registry.extensions)

(* A registry workload at batch 1, optimized for its input shapes, and a
   fresh engine on it (JIT off). *)
let workload_engine ?(parallel = true) ?loop_grain name =
  let module W = Functs_workloads.Workload in
  let w =
    match Functs_workloads.Registry.find name with
    | Some w -> w
    | None -> Alcotest.failf "%s workload missing" name
  in
  let batch = 1 and seq = w.W.default_seq in
  let g = W.graph w ~batch ~seq in
  let args () = w.W.inputs ~batch ~seq in
  let inputs = Engine.input_shapes (args ()) in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline ~inputs fg);
  let eng =
    Engine.prepare ~parallel ~domains:1 ?loop_grain ~cache:false
      ~jit:Functs_jit.Jit.Off fg ~inputs
  in
  (g, fg, args, eng)

let loop_rows eng =
  List.filter
    (fun (r : Scheduler.attribution_row) -> r.Scheduler.at_kind = `Loop)
    (Engine.attribution eng)

let refuses eng what site arm =
  check what true
    (match Engine.force eng site arm with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Each loop site is journaled once, when the engine is prepared, as a
   [Tuner_pin] whose detail names its rule: a [Parallel] loop with a
   batching plan [batched] by [rule=vector-plan] or [rule=chunked-plan],
   a [Reduction] loop [seq] by [rule=reduction].  A [Sequential] loop
   with no loop kernel (the JIT is off) has no site and no record, and
   runs add no loop record. *)
let test_loop_sites_journaled () =
  let module W = Functs_workloads.Workload in
  let module J = Functs_obs.Journal in
  J.enable ();
  let rules = Hashtbl.create 4 in
  List.iter
    (fun (w : W.t) ->
      let batch = 1 and seq = w.W.default_seq in
      let args () = w.W.inputs ~batch ~seq in
      let inputs = Engine.input_shapes (args ()) in
      let fg = Graph.clone (W.graph w ~batch ~seq) in
      ignore (Passes.tensorssa_pipeline ~inputs fg);
      let plan = Engine.plan fg in
      J.clear ();
      let eng =
        Engine.prepare ~parallel:true ~cache:false ~jit:Functs_jit.Jit.Off fg
          ~inputs
      in
      let loop_records () =
        List.filter
          (fun (e : J.entry) -> e.J.j_site = "scheduler.loop")
          (J.entries ())
      in
      let pins = loop_records () in
      let loops =
        List.filter (fun (n : Graph.node) -> n.Graph.n_op = Op.Loop)
          (Graph.all_nodes fg)
      in
      check
        (w.W.name ^ ": every record is a loop node's")
        true
        (List.for_all
           (fun (e : J.entry) ->
             List.exists (fun (n : Graph.node) -> n.Graph.n_id = e.J.j_id) loops)
           pins);
      List.iter
        (fun (n : Graph.node) ->
          let label = Printf.sprintf "%s loop#%d" w.W.name n.Graph.n_id in
          let mine =
            List.filter (fun (e : J.entry) -> e.J.j_id = n.Graph.n_id) pins
          in
          let pinned arm details =
            match mine with
            | [ e ] ->
                check (label ^ " is a pin") true (e.J.j_kind = J.Tuner_pin);
                Alcotest.(check string) (label ^ " arm") arm e.J.j_arm;
                check
                  (label ^ " names its rule: " ^ e.J.j_detail)
                  true
                  (List.mem e.J.j_detail details);
                Hashtbl.replace rules e.J.j_detail ()
            | _ ->
                Alcotest.failf "%s: %d records, want one" label
                  (List.length mine)
          in
          match Fusion.loop_verdict plan n with
          | Loop_par.Parallel _ ->
              (* one whose plan cannot be built has no site *)
              if mine <> [] then
                pinned "batched" [ "rule=vector-plan"; "rule=chunked-plan" ]
          | Loop_par.Reduction _ -> pinned "seq" [ "rule=reduction" ]
          | Loop_par.Sequential _ ->
              check_int (label ^ " has no site") 0 (List.length mine))
        loops;
      for _ = 1 to 3 do
        ignore (Engine.run eng (args ()))
      done;
      check_int
        (w.W.name ^ ": runs add no loop record")
        (List.length pins)
        (List.length (loop_records ()));
      check
        (w.W.name ^ ": every timed loop was journaled")
        true
        (List.for_all
           (fun (r : Scheduler.attribution_row) ->
             List.exists (fun (e : J.entry) -> e.J.j_id = r.Scheduler.at_id) pins)
           (loop_rows eng)))
    (Functs_workloads.Registry.all @ Functs_workloads.Registry.extensions);
  List.iter
    (fun rule -> check (rule ^ " was seen") true (Hashtbl.mem rules rule))
    [ "rule=vector-plan"; "rule=chunked-plan"; "rule=reduction" ]

(* A [Reduction] loop's site has only [seq]: no batching plan and no loop
   kernel, so forcing [batched] or [native] raises and forcing [seq]
   holds; the site is still timed, and the outputs are the
   interpreter's. *)
let test_reduction_site_seq_only () =
  let g, _, args, eng = workload_engine "tmax" in
  let expected = Eval.run g (args ()) in
  check "first run bitwise" true (Equiv.bitwise expected (Engine.run eng (args ())));
  let rows = loop_rows eng in
  check "tmax has a timed loop site" true (rows <> []);
  List.iter
    (fun (r : Scheduler.attribution_row) ->
      let site = (`Loop, r.Scheduler.at_id) in
      let label = Printf.sprintf "loop#%d" r.Scheduler.at_id in
      Alcotest.(check string) (label ^ " runs seq") "seq" r.Scheduler.at_arm;
      check_int (label ^ " launched once") 1 r.Scheduler.at_launches;
      refuses eng (label ^ " refuses batched") site `Batched;
      refuses eng (label ^ " refuses native") site `Native;
      Engine.force eng site `Seq)
    rows;
  check "forced run bitwise" true (Equiv.bitwise expected (Engine.run eng (args ())));
  let s = Engine.stats eng in
  check_int "no batching plan" 0 s.Scheduler.batched_loops;
  check_int "none pinned batched" 0 s.Scheduler.loops_pinned_batched;
  check_int "no batched run" 0 s.Scheduler.parallel_loops_run;
  check "every site launched twice" true
    (List.for_all
       (fun (r : Scheduler.attribution_row) ->
         r.Scheduler.at_arm = "seq" && r.Scheduler.at_launches = 2)
       (loop_rows eng))

(* Forcing yolact's batched loop to [seq] and back: [loops_pinned_batched]
   follows the arm, each force is journaled with detail [forced], a [seq]
   run batches nothing, and every run is the interpreter's, bitwise. *)
let test_forced_loop_arm_round_trip () =
  let module J = Functs_obs.Journal in
  J.enable ();
  let g, _, args, eng = workload_engine "yolact" in
  let expected = Eval.run g (args ()) in
  let run what =
    check (what ^ ": bitwise") true (Equiv.bitwise expected (Engine.run eng (args ())))
  in
  run "rule's arm";
  let s0 = Engine.stats eng in
  check "yolact has a batching plan" true (s0.Scheduler.batched_loops >= 1);
  check_int "every plan on batched" s0.Scheduler.batched_loops
    s0.Scheduler.loops_pinned_batched;
  check_int "the rule's run batched" 1 s0.Scheduler.parallel_loops_run;
  let sites =
    List.filter_map
      (fun (r : Scheduler.attribution_row) ->
        if r.Scheduler.at_arm = "batched" then Some (`Loop, r.Scheduler.at_id)
        else None)
      (loop_rows eng)
  in
  check "a batched site launched" true (sites <> []);
  let forced_to arm =
    List.length
      (List.filter
         (fun (e : J.entry) ->
           e.J.j_site = "scheduler.loop" && e.J.j_kind = J.Tuner_pin
           && e.J.j_arm = arm && e.J.j_detail = "forced")
         (J.entries ()))
  in
  J.clear ();
  List.iter (fun site -> Engine.force eng site `Seq) sites;
  check_int "each force to seq journaled" (List.length sites) (forced_to "seq");
  check_int "none pinned batched" 0
    (Engine.stats eng).Scheduler.loops_pinned_batched;
  run "forced seq";
  check_int "the seq run batched nothing" 1
    (Engine.stats eng).Scheduler.parallel_loops_run;
  List.iter (fun site -> Engine.force eng site `Batched) sites;
  check_int "each force to batched journaled" (List.length sites)
    (forced_to "batched");
  check_int "all pinned batched again" s0.Scheduler.batched_loops
    (Engine.stats eng).Scheduler.loops_pinned_batched;
  run "forced batched";
  check_int "the batched run batched" 2
    (Engine.stats eng).Scheduler.parallel_loops_run

(* A loop site runs its arm only past the loop grain and on a parallel
   engine; otherwise the loop runs its sequential body, untimed: no
   batched run and no attribution row, the site still on [batched], and
   the outputs the interpreter's. *)
let test_untuned_loop_runs_seq () =
  List.iter
    (fun (label, parallel, loop_grain) ->
      let g, _, args, eng = workload_engine ~parallel ~loop_grain "yolact" in
      let expected = Eval.run g (args ()) in
      for run = 1 to 2 do
        check
          (Printf.sprintf "%s run %d bitwise" label run)
          true
          (Equiv.bitwise expected (Engine.run eng (args ())))
      done;
      let s = Engine.stats eng in
      check_int (label ^ ": no batched run") 0 s.Scheduler.parallel_loops_run;
      check (label ^ ": the site keeps its plan") true
        (s.Scheduler.loops_pinned_batched >= 1);
      check_int (label ^ ": no loop row") 0 (List.length (loop_rows eng)))
    [ ("under the grain", true, max_int); ("sequential engine", false, 2) ]

let test_kernels_actually_compile () =
  (* Agreement is the forced-arm suite's job; this pins that the group-launch
     path really runs on a fusion-rich workload: with the JIT off every
     group launches node by node at its last member, and attribution has
     one row per launched group.  The sequential engine runs attention's
     loop on its body, so the groups inside it launch too. *)
  let w =
    match Functs_workloads.Registry.find "attention" with
    | Some w -> w
    | None -> Alcotest.fail "attention workload missing"
  in
  let batch = w.Functs_workloads.Workload.default_batch
  and seq = w.Functs_workloads.Workload.default_seq in
  let g = Functs_workloads.Workload.graph w ~batch ~seq in
  ignore (Passes.tensorssa_pipeline g);
  let args = w.Functs_workloads.Workload.inputs ~batch ~seq in
  let eng =
    Engine.prepare ~parallel:false ~cache:false g
      ~inputs:(Engine.input_shapes args)
  in
  for _ = 1 to 3 do
    ignore (Engine.run eng args)
  done;
  let groups =
    List.filter
      (fun (r : Scheduler.attribution_row) -> r.Scheduler.at_kind = `Group)
      (Engine.attribution eng)
  in
  check "groups launched" true (groups <> []);
  check "every group launched per node" true
    (List.for_all
       (fun (r : Scheduler.attribution_row) ->
         r.Scheduler.at_arm = "per_node" && r.Scheduler.at_launches > 0)
       groups);
  check_int "no kernel launch with the JIT off" 0
    (Engine.stats eng).Scheduler.kernel_runs;
  check "every group names its member ops" true
    (List.for_all
       (fun (r : Scheduler.attribution_row) -> r.Scheduler.at_ops <> [])
       groups);
  check "the matmul has a row of its own" true
    (List.exists
       (fun (r : Scheduler.attribution_row) -> r.Scheduler.at_ops = [ "matmul" ])
       groups)

(* --- properties --- *)

(* The strided engine against the reference, bitwise: random views —
   step-k slices, select, permute, expand and unsqueeze over bases with
   size-1 dims and special values — through every unary and binary op,
   where, clone and copy_into (strided destination, broadcast or 0-d
   source).  Each case is drawn from its seed, which the counterexample
   prints. *)
module Strided_case = struct
  module Sc = Functs_tensor.Scalar
  module St = Functs_tensor.Storage

  (* Special values, magnitudes past exp's overflow (709.78) and
     underflow (-745.13) thresholds and far beyond, and subnormals. *)
  let value st =
    match Random.State.int st 18 with
    | 0 -> Float.nan
    | 1 -> Float.infinity
    | 2 -> Float.neg_infinity
    | 3 -> -0.0
    | 4 -> 0.0
    | 5 -> -.Float.nan
    | 6 -> Random.State.float st 1600.0 -. 800.0
    | 7 -> Random.State.float st 2e300 -. 1e300
    | 8 -> Random.State.float st Float.min_float
    | 9 -> -.Random.State.float st Float.min_float
    | _ -> Random.State.float st 4.0 -. 2.0

  let fresh st shape =
    T.of_array shape (Array.init (Functs_tensor.Shape.numel shape) (fun _ -> value st))

  let insert a d v =
    Array.init (Array.length a + 1) (fun k ->
        if k < d then a.(k) else if k = d then v else a.(k - 1))

  let remove a d =
    Array.init (Array.length a - 1) (fun k -> if k < d then a.(k) else a.(k + 1))

  (* A tensor of logical [shape] reached through a random chain of views. *)
  let rec view st ~expand depth shape =
    let nd = Array.length shape in
    let ones = List.filter (fun d -> shape.(d) = 1) (List.init nd Fun.id) in
    let wide = List.filter (fun d -> shape.(d) > 1) (List.init nd Fun.id) in
    let pick l = List.nth l (Random.State.int st (List.length l)) in
    match if depth = 0 then 0 else Random.State.int st 6 with
    | 1 when nd > 0 ->
        (* step-k slices on every dim *)
        let ks = Array.map (fun _ -> 1 + Random.State.int st 3) shape in
        let los = Array.map (fun _ -> Random.State.int st 2) shape in
        let base =
          view st ~expand (depth - 1)
            (Array.mapi (fun d n -> los.(d) + (n * ks.(d))) shape)
        in
        let t = ref base in
        Array.iteri
          (fun d n ->
            t :=
              T.slice !t ~dim:d ~start:los.(d)
                ~stop:(los.(d) + (n * ks.(d)))
                ~step:ks.(d))
          shape;
        !t
    | 2 ->
        let d = Random.State.int st (nd + 1) in
        let m = 1 + Random.State.int st 3 in
        T.select
          (view st ~expand (depth - 1) (insert shape d m))
          ~dim:(if Random.State.bool st then d else d - nd - 1)
          (Random.State.int st m)
    | 3 when nd > 1 ->
        let perm = Array.init nd Fun.id in
        for k = nd - 1 downto 1 do
          let j = Random.State.int st (k + 1) in
          let x = perm.(k) in
          perm.(k) <- perm.(j);
          perm.(j) <- x
        done;
        (* t.permute(perm) has [shape] when t's dim perm.(k) is shape.(k) *)
        let inner = Array.make nd 0 in
        Array.iteri (fun k p -> inner.(p) <- shape.(k)) perm;
        T.permute (view st ~expand (depth - 1) inner) perm
    | 4 when expand && wide <> [] ->
        let d = pick wide in
        let inner = Array.copy shape in
        inner.(d) <- 1;
        T.expand (view st ~expand (depth - 1) inner) shape
    | 5 when ones <> [] ->
        let d = pick ones in
        T.unsqueeze (view st ~expand (depth - 1) (remove shape d)) ~dim:d
    | _ -> fresh st shape

  let shape st = Array.init (Random.State.int st 5) (fun _ -> 1 + Random.State.int st 4)

  (* a shape that broadcasts to [s]: leading dims dropped, others set to 1 *)
  let narrower st s =
    let drop = Random.State.int st (Array.length s + 1) in
    Array.map
      (fun n -> if Random.State.int st 3 = 0 then 1 else n)
      (Array.sub s drop (Array.length s - drop))

  let bits (t : T.t) = Array.map Int64.bits_of_float (T.to_flat_array t)
  let storage_bits (t : T.t) = Array.map Int64.bits_of_float (St.data t.T.storage)

  let with_copied_storage (t : T.t) =
    { t with T.storage = St.of_array (Array.copy (St.data t.T.storage)) }

  (* (description, engine result bits = reference result bits) *)
  let run seed =
    let st = Random.State.make [| seed |] in
    let s = shape st in
    let v ?(expand = true) sh = view st ~expand 3 sh in
    let operand () = if Random.State.bool st then v s else v (narrower st s) in
    match Random.State.int st 5 with
    | 0 ->
        let fn = List.nth Sc.all_unary (Random.State.int st 8) in
        let a = v s in
        ( "unary " ^ Sc.unary_name fn,
          bits (Fastops.unary fn a) = bits (Functs_tensor.Ops.unary fn a) )
    | 1 ->
        let fn = List.nth Sc.all_binary (Random.State.int st 10) in
        let a = operand () and b = operand () in
        ( "binary " ^ Sc.binary_name fn,
          bits (Fastops.binary fn a b) = bits (Functs_tensor.Ops.binary fn a b) )
    | 2 ->
        let c = operand () and a = operand () and b = operand () in
        ("where", bits (Fastops.where c a b) = bits (Functs_tensor.Ops.where c a b))
    | 3 ->
        let a = v s in
        ("clone", bits (Fastops.clone a) = bits (T.clone a))
    | _ ->
        let dst = v s in
        let src =
          match Random.State.int st 3 with
          | 0 -> T.scalar (value st)
          | 1 -> v (narrower st s)
          | _ -> v s
        in
        let ref_dst = with_copied_storage dst in
        Fastops.copy_into dst src;
        ignore (Functs_tensor.Inplace.copy_ ref_dst src);
        ("copy_into", storage_bits dst = storage_bits ref_dst)
end

let prop_strided_engine_bitwise =
  QCheck2.Test.make ~name:"strided engine bitwise vs the reference ops"
    ~count:400
    ~print:(fun seed ->
      Printf.sprintf "seed %d (%s)" seed (fst (Strided_case.run seed)))
    QCheck2.Gen.int
    (fun seed -> snd (Strided_case.run seed))

(* Fastops.matmul against Ops.matmul, bitwise, sequentially and chunked
   over a 3-lane pool: every rank pair, operands behind views (permute,
   select, expand) that need [contig], shapes at the tile edges (m = 1
   and 2, k = 0 and 1, n below and off a multiple of the 16-column tile)
   and special values (NaN, infinities, subnormals, signed zeros).  Some
   cases zero a row of [a] to -0.0 against a positive [b]: every product
   in that row is -0.0, and the reference sum, which starts at +0.0, is
   +0.0.  Each case is drawn from its seed. *)
module Matmul_case = struct
  module St = Functs_tensor.Storage

  (* the parallel-for of a 3-lane engine, at a small kernel grain *)
  let lanes3 () =
    Scheduler.parallel_for (Pool.shared ~lanes:3) ~kernel_grain:16

  let value st ~special =
    if Random.State.int st 32 >= special then Random.State.float st 4.0 -. 2.0
    else
      match Random.State.int st 7 with
      | 0 -> Float.nan
      | 1 -> Float.infinity
      | 2 -> Float.neg_infinity
      | 3 -> -0.0
      | 4 -> 0.0
      | 5 -> Random.State.float st Float.min_float
      | _ -> -.Random.State.float st Float.min_float

  (* tiny sizes, whole 16-column tiles, or anything up to 40 *)
  let dim st ~lo =
    match Random.State.int st 4 with
    | 0 -> lo + Random.State.int st 3
    | 1 -> 16 * (1 + Random.State.int st 2)
    | _ -> lo + Random.State.int st 40

  (* a tensor of [shape] behind random views, with fresh values *)
  let operand st ~special shape =
    let t =
      if Array.exists (fun d -> d = 0) shape then T.zeros shape
      else Strided_case.view st ~expand:true 3 shape
    in
    let d = St.data t.T.storage in
    Array.iteri (fun i _ -> d.(i) <- value st ~special) d;
    t

  (* Every NaN reads as one value: when both operands of an add are NaN,
     IEEE 754 leaves which payload (and sign) survives unspecified, and
     the C compiler may order a commutative add either way. *)
  let bits (t : T.t) =
    Array.map
      (fun x -> if Float.is_nan x then 0L else Int64.bits_of_float x)
      (T.to_flat_array t)

  (* (description, engine result bits = reference result bits) *)
  let run seed =
    let st = Random.State.make [| seed |] in
    let m = dim st ~lo:1 and k = dim st ~lo:0 and n = dim st ~lo:1 in
    let batch () = 1 + Random.State.int st 3 in
    let rank, sa, sb =
      match Random.State.int st 5 with
      | 0 -> ("2x2", [| m; k |], [| k; n |])
      | 1 -> ("3x2", [| batch (); m; k |], [| k; n |])
      | 2 ->
          let ba = batch () in
          let bb = if Random.State.bool st then 1 else ba in
          if Random.State.bool st then ("3x3", [| ba; m; k |], [| bb; k; n |])
          else ("3x3", [| bb; m; k |], [| ba; k; n |])
      | 3 -> ("1x2", [| k |], [| k; n |])
      | _ -> ("2x1", [| m; k |], [| k |])
    in
    let special = [| 0; 1; 8 |].(Random.State.int st 3) in
    let a = operand st ~special sa and b = operand st ~special sb in
    let zero_row = k > 0 && Random.State.int st 6 = 0 in
    if zero_row then begin
      let d = St.data b.T.storage in
      Array.iteri (fun i _ -> d.(i) <- 0.5 +. Random.State.float st 1.5) d;
      let row = Random.State.int st (if Array.length sa = 1 then 1 else m) in
      for l = 0 to k - 1 do
        T.set a
          (match Array.length sa with
          | 1 -> [| l |]
          | 2 -> [| row; l |]
          | _ -> [| 0; row; l |])
          (-0.0)
      done
    end;
    let expected = bits (Functs_tensor.Ops.matmul a b) in
    let run_on par = bits (Fastops.matmul ?par a b) in
    let shape s =
      String.concat "x" (Array.to_list (Array.map string_of_int s))
    in
    ( Printf.sprintf "%s [%s] @ [%s]%s" rank (shape sa) (shape sb)
        (if zero_row then " with a -0.0 row" else ""),
      run_on None = expected && run_on (Some (lanes3 ())) = expected )
end

let prop_matmul_bitwise =
  QCheck2.Test.make
    ~name:"matmul bitwise vs the reference (sequential and 3 lanes)"
    ~count:1000
    ~print:(fun seed ->
      Printf.sprintf "seed %d (%s)" seed (fst (Matmul_case.run seed)))
    QCheck2.Gen.int
    (fun seed -> snd (Matmul_case.run seed))

(* Shrunk counterexamples of [prop_matmul_bitwise], and a row of -0.0
   products on each kernel path: the row loop (m = 1, 2), the 4- and
   8-row tiles, leftover rows (13) and the column remainder (n = 19). *)
let test_matmul_regressions () =
  List.iter
    (fun seed ->
      let desc, ok = Matmul_case.run seed in
      check (Printf.sprintf "seed %d (%s)" seed desc) true ok)
    [ -89022190605 (* NaN from inf - inf, then a NaN product *) ];
  List.iter
    (fun m ->
      let a = T.of_array [| m; 3 |] (Array.make (m * 3) (-0.0)) in
      let b = T.of_array [| 3; 19 |] (Array.make 57 1.5) in
      check
        (Printf.sprintf "m = %d: -0.0 products sum to +0.0" m)
        true
        (Array.for_all
           (fun x -> Int64.bits_of_float x = 0L)
           (T.to_flat_array (Fastops.matmul a b))))
    [ 1; 2; 4; 8; 13; 16 ]

(* The matmul rule, one rounding per term ([Ops.matmul]'s [Float.fma]):
   row [1, 1+2^-30] times column [-1, 1-2^-30] is (1 - 2^-60) - 1 =
   -2^-60 when each term is one fma, and +0.0 when the product is
   rounded before the add.  Every path must give -2^-60 and the
   interpreter's bits, at row counts that reach the row loop (m = 1),
   the 4- and 8-row tiles and leftover rows (13), with n = 19 reaching
   the columns past the 16-column panel: [Ops.matmul], [Fastops.matmul]
   (2-D and 3-D, sequential and over 3 lanes), a JIT-armed matmul group
   and lstm's native loop kernel, whose GEMM reads the packed weight. *)
let crafted_row = [| 1.0; 1.0 +. 0x1p-30 |]
let crafted_col = [| -1.0; 1.0 -. 0x1p-30 |]

(* [m x k] rows / [k x n] columns that start with the crafted pair and
   are zero beyond it *)
let crafted_rows m k =
  T.of_array [| m; k |]
    (Array.init (m * k) (fun i ->
         if i mod k < 2 then crafted_row.(i mod k) else 0.0))

let crafted_cols k n =
  T.of_array [| k; n |]
    (Array.init (k * n) (fun i ->
         if i / n < 2 then crafted_col.(i / n) else 0.0))

(* two copies of [t] stacked on a new leading axis *)
let twice t =
  T.of_array
    (Array.append [| 2 |] (T.shape t))
    (Array.append (T.to_flat_array t) (T.to_flat_array t))

let all_bits x t =
  Array.for_all
    (fun y -> Int64.equal (Int64.bits_of_float y) (Int64.bits_of_float x))
    (T.to_flat_array t)

let with_jit_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "functs-jit-fused-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
           (Sys.readdir dir)
       with _ -> ());
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

(* a sequential JIT engine for [g], its background compile awaited *)
let jit_armed g args ~dir =
  let fg = Graph.clone g in
  let inputs = Engine.input_shapes args in
  ignore (Passes.tensorssa_pipeline ~inputs fg);
  let eng =
    Engine.prepare ~parallel:false ~cache:false ~jit:Functs_jit.Jit.Auto
      ~jit_dir:dir fg ~inputs
  in
  Engine.await_jit eng;
  eng

let test_matmul_fused () =
  let fused label t =
    check (label ^ ": every output is -2^-60") true (all_bits (-0x1p-60) t)
  in
  let n = 19 in
  let b = crafted_cols 2 n in
  let mm =
    Lower.program
      (Source_parser.parse
         "def f(a: Tensor, b: Tensor):\n    return torch.matmul(a, b)\n")
  in
  with_jit_dir @@ fun dir ->
  List.iter
    (fun m ->
      let label what = Printf.sprintf "m = %d: %s" m what in
      let a = crafted_rows m 2 in
      fused (label "Ops.matmul") (Functs_tensor.Ops.matmul a b);
      List.iter
        (fun (lanes, par) ->
          let l what = label (Printf.sprintf "Fastops %s, %s" what lanes) in
          fused (l "2-D") (Fastops.matmul ?par a b);
          fused (l "3-D x 2-D") (Fastops.matmul ?par (twice a) b);
          fused (l "3-D x 3-D") (Fastops.matmul ?par (twice a) (twice b)))
        [ ("sequential", None); ("3 lanes", Some (Matmul_case.lanes3 ())) ];
      if Functs_jit.Jit.c_toolchain_available () then begin
        (* one fused group holding the matmul, armed with its C kernel *)
        let args () = [ Value.Tensor (T.clone a); Value.Tensor (T.clone b) ] in
        let eng = jit_armed mm (args ()) ~dir in
        let got = Engine.run eng (args ()) in
        check (label "the matmul group ran its C kernel") true
          ((Engine.stats eng).Scheduler.cjit_runs > 0);
        (match got with
        | [ Value.Tensor t ] -> fused (label "JIT matmul group") t
        | _ -> Alcotest.fail "one tensor out");
        check (label "JIT matmul group = interpreter") true
          (Equiv.bitwise (Eval.run mm (args ())) got);
        (* lstm's loop kernel: the crafted row in every row of h0, the
           crafted column in every column of u, x and c0 zero.  Step 0's
           gates are then -2^-60, so its h is
           0.5 * tanh(0.5 * tanh(-2^-60)) = -2^-62, where two roundings
           per term give +0.0. *)
        let seq = 2 and hidden = 128 (* lstm's *) in
        let args () =
          [
            Value.Tensor (T.zeros [| seq; m; 4 * hidden |]);
            Value.Tensor (crafted_cols hidden (4 * hidden));
            Value.Tensor (crafted_rows m hidden);
            Value.Tensor (T.zeros [| m; hidden |]);
          ]
        in
        let g =
          Functs_workloads.(Workload.graph Lstm.workload ~batch:m ~seq)
        in
        let eng = jit_armed g (args ()) ~dir in
        let got = Engine.run eng (args ()) in
        check (label "lstm ran its loop kernel") true
          ((Engine.stats eng).Scheduler.native_loops > 0);
        (match got with
        | Value.Tensor out :: _ ->
            check (label "lstm: step 0's h is -2^-62") true
              (all_bits (-0x1p-62) (T.select out ~dim:0 0))
        | _ -> Alcotest.fail "lstm returns out first");
        check (label "lstm loop kernel = interpreter") true
          (Equiv.bitwise (Eval.run g (args ())) got)
      end)
    [ 1; 4; 8; 13; 16 ]

(* Shrunk counterexamples of [prop_engine_matches_interp]: two NaNs of
   opposite sign meet in a commutative [+] or [*], and the result must
   carry the first operand's, as the interpreter's does. *)
let test_nan_regressions () =
  List.iter
    (fun src ->
      check src true
        (agrees (Lower.program (Source_parser.parse src)) (fresh_args 42)))
    [
      "def random_program(x: Tensor, n: int):\n\
      \    t = x.clone()\n\
      \    t[0] = t[0]\n\
      \    for k2 in range(4):\n\
      \        t -= torch.neg(t[1])\n\
      \        for k1 in range(4):\n\
      \            t *= t[0]\n\
      \        if (n > 0):\n\
      \            t[0] += 0\n\
      \            t[0, 0] = t[0, 0]\n\
      \            t[k2, k2] -= t[k2, k2]\n\
      \        else:\n\
      \            t[0] = t[0]\n\
      \    return t\n";
      "def random_program(x: Tensor, n: int):\n\
      \    t = x.clone()\n\
      \    for k2 in range(2):\n\
      \        if (n > 0):\n\
      \            t[0] = t[0]\n\
      \        else:\n\
      \            t[0] = t[0]\n\
      \            t[0] = torch.neg(t[0])\n\
      \        for k1 in range(1):\n\
      \            t[0] += t[0]\n\
      \        for k1 in range(3):\n\
      \            t += torch.exp(t[1])\n\
      \            t[k1] = (torch.neg(t[0]) + t[1])\n\
      \    return t\n";
      "def random_program(x: Tensor, n: int):\n\
      \    t = x.clone()\n\
      \    for k2 in range(2):\n\
      \        t[0] = t[0]\n\
      \        for k1 in range(3):\n\
      \            t[0:1] += t[0]\n\
      \            t[k2] += (torch.neg(t[k1]) + torch.exp(t[0]))\n\
      \            t[1] = torch.neg(t[1])\n\
      \    return t\n";
    ]

let prop_engine_matches_interp =
  QCheck2.Test.make
    ~name:"engine matches the interpreter on random programs (if/loop)"
    ~count:150 ~print:Generators.print_program Generators.gen_program
    (fun p ->
      let g = Lower.program p in
      agrees g (fresh_args 42))

let prop_engine_matches_interp_straightline =
  QCheck2.Test.make
    ~name:"engine matches the interpreter on straight-line programs"
    ~count:150 ~print:Generators.print_program
    Generators.gen_straightline_program
    (fun p ->
      let g = Lower.program p in
      agrees g (fresh_args 7))

let () =
  Alcotest.run "exec"
    [
      ("equiv", [ Alcotest.test_case "the oracle rule" `Quick test_equiv_rule ]);
      ( "buffers",
        [
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "foreign storage" `Quick
            test_pool_foreign_not_recycled;
        ] );
      ( "pool",
        [
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "nested dispatch" `Quick test_pool_nested;
          Alcotest.test_case "bitwise-identical kernels" `Quick
            test_pool_bitwise_kernels;
          Alcotest.test_case "shutdown joins all domains" `Quick
            test_pool_shutdown_joins;
          Alcotest.test_case "steal contention stress" `Quick
            test_pool_steal_stress;
          Alcotest.test_case "grain edges covered" `Quick
            test_pool_grain_edges;
          Alcotest.test_case "nested under-subscribed dispatch" `Quick
            test_pool_nested_undersubscribed;
          Alcotest.test_case "concurrent external dispatchers" `Quick
            test_pool_concurrent_dispatchers;
        ] );
      ( "cache",
        [
          Alcotest.test_case "same shape hits" `Quick
            test_cache_hit_same_shape;
          Alcotest.test_case "changed shape misses" `Quick
            test_cache_shape_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction;
          Alcotest.test_case "argument kinds are checked" `Quick
            test_check_arg_kinds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "donation loop" `Quick test_donation_loop;
          Alcotest.test_case "args never mutated" `Quick
            test_engine_never_mutates_args;
          Alcotest.test_case "a clone of a dying temporary reuses it" `Quick
            test_clone_reuses_dying_temporary;
          Alcotest.test_case "batched loop adopts its init" `Quick
            test_batched_loop_donates_init;
          Alcotest.test_case "parallel slot consistency" `Quick
            test_parallel_slot_consistency;
          Alcotest.test_case "kernel path exercised" `Quick
            test_kernels_actually_compile;
          Alcotest.test_case "loop arms reproduce across engines" `Quick
            test_loop_arms_reproduce;
          Alcotest.test_case "loop sites journaled once, by rule" `Quick
            test_loop_sites_journaled;
          Alcotest.test_case "a reduction site has only seq" `Quick
            test_reduction_site_seq_only;
          Alcotest.test_case "forced loop arms round trip" `Quick
            test_forced_loop_arm_round_trip;
          Alcotest.test_case "a loop under the grain runs its body" `Quick
            test_untuned_loop_runs_seq;
          Alcotest.test_case "workload equivalence" `Slow
            test_workloads_equivalent;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "hidden dependences stay sequential" `Quick
            test_adversarial_sequential;
          Alcotest.test_case "batched loops bitwise" `Quick
            test_batched_bitwise;
          Alcotest.test_case "batched loop recycles caller scratch" `Quick
            test_batched_scratch_recycled;
          Alcotest.test_case "vectorised plans bitwise" `Quick
            test_vector_plans;
        ] );
      ( "property",
        Alcotest.test_case "matmul regression cases" `Quick
          test_matmul_regressions
        :: Alcotest.test_case "matmul rounds each term once" `Quick
             test_matmul_fused
        :: Alcotest.test_case "NaN regression cases" `Quick test_nan_regressions
        :: List.map QCheck_alcotest.to_alcotest
          [
            prop_strided_engine_bitwise;
            prop_matmul_bitwise;
            prop_engine_matches_interp_straightline;
            prop_engine_matches_interp;
          ] );
    ]
