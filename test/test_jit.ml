(* The native JIT backend: differential equivalence of every registered
   workload under FUNCTS_JIT=auto against the reference interpreter
   (every kernel the emitter accepts must compile to C), bitwise IEEE
   special-value semantics of the emitted C, graceful per-group
   fallback when the compiler is missing, broken or hung or the artifact
   directory is unusable, the emitted unit's shape (one function per
   kernel, for one ISA, shape-generic), one compiled unit serving every
   serving bucket, launches at extents other than the compiling
   engine's, the on-disk artifact cache (warm loads compile nothing;
   stale and retired artifacts are evicted), and the tiered JIT: engines
   serve per-node while cc runs in the background and arm on a later
   run, close kills the compile, and a hung compiler under a serving
   session is killed at its bound.  Tests that check native launches
   await arming first ([jit_engine], [Engine.await_jit]).

   Every test degrades to a meaningful assertion when the host has no C
   compiler: the differential legs then prove the fallback ladder
   (identical outputs, zero armed groups, fallback ticks). *)

open Functs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A scratch artifact directory per run: tests must exercise cold
   compiles, and a developer's real cache must not absorb them. *)
let jit_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "functs-jit-test-%d" (Unix.getpid ()))
  in
  at_exit (fun () ->
      match Sys.readdir d with
      | files ->
          Array.iter
            (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
            files;
          (try Unix.rmdir d with _ -> ())
      | exception _ -> ());
  d

(* A fresh artifact directory for [f], removed afterwards.  Kernels are
   shape-generic, so a unit an earlier test compiled into [jit_dir]
   would serve a later one: tests that need a cold compile (or a failing
   compiler to be asked at all) use their own directory. *)
let with_scratch_dir tag f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "functs-jit-%s-%d" tag (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Jit.clear_loaded ();
      (try
         Array.iter
           (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
           (Sys.readdir dir)
       with _ -> ());
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

let counter name =
  let c = Metrics.counter name in
  fun () -> Metrics.value c

let c_hits = counter "jit.c.hit"
let c_misses = counter "jit.c.miss"
let c_compiles = counter "jit.c.compiles"
let c_evicted = counter "jit.c.evicted"
let c_fallbacks = counter "jit.c.fallback"

(* One engine run judged by the oracle rule: bitwise (the emitter
   reproduces the interpreter's operation order exactly), with the
   libmvec bound only when the run launched native code. *)
let agrees eng expected args =
  let got, native = Equiv.run eng args in
  Equiv.matches ~native expected got

let clone_args =
  List.map (function
    | Value.Tensor t -> Value.Tensor (Tensor.clone t)
    | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)

let functionalized (w : Workload.t) =
  let batch = w.Workload.default_batch and seq = w.Workload.default_seq in
  let g = Workload.graph w ~batch ~seq in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  (g, fg, fun () -> w.Workload.inputs ~batch ~seq)

(* An armed JIT engine: the background compile a miss starts is awaited,
   so the first run already launches native kernels. *)
let jit_engine ?(dir = jit_dir) fg args =
  let eng =
    Engine.prepare ~parallel:false ~cache:false ~jit:Jit.Auto ~jit_dir:dir fg
      ~inputs:(Engine.input_shapes args)
  in
  Engine.await_jit eng;
  eng

(* The kernels the emitter accepts under the engine's fusion plan: the
   ones the engine arms natively. *)
let emittable_kernels fg args =
  let plan = Engine.plan fg in
  let shapes = Shape_infer.infer fg ~inputs:(Engine.input_shapes args) in
  ( List.filter
      (fun k -> Result.is_ok (Functs_jit.Jit_emit.emit k ~shapes))
      (Codegen.emit fg plan ~shapes),
    shapes )

let armed_groups entries = List.sort compare (List.map fst entries)

let kernel_groups kernels =
  List.sort compare (List.map (fun (k : Codegen.kernel) -> k.k_group) kernels)

(* A compiler stand-in: answers the [--version] probe, then runs
   [body] for the compile itself. *)
let fake_compiler body =
  let path = Filename.temp_file "functs-fake-cc" ".sh" in
  let oc = open_out path in
  output_string oc
    (Printf.sprintf "#!/bin/sh\ncase \"$1\" in --version) exit 0;; esac\n%s\n"
       body);
  close_out oc;
  Unix.chmod path 0o755;
  path

(* --- differential: every workload, FUNCTS_JIT=auto vs interpreter --- *)

let test_differential () =
  let cc = Jit.c_toolchain_available () in
  let cfb0 = c_fallbacks () in
  let armed = ref 0 and native_runs = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let g, fg, args_fn = functionalized w in
      let expected = Eval.run g (clone_args (args_fn ())) in
      let eng = jit_engine fg (args_fn ()) in
      check
        (Printf.sprintf "%s: jit outputs equal the interpreter"
           w.Workload.name)
        true
        (agrees eng expected (args_fn ()));
      let s = Engine.stats eng in
      armed := !armed + s.Scheduler.cjit_groups;
      native_runs := !native_runs + s.Scheduler.cjit_runs)
    (Registry.all @ Registry.extensions);
  check_int "all ten registry workloads ran" 10
    (List.length (Registry.all @ Registry.extensions));
  if cc then begin
    check "some groups were armed natively" true (!armed > 0);
    check "native kernels actually ran" true (!native_runs > 0)
  end
  else begin
    check_int "no C compiler: nothing armed" 0 !armed;
    check "no C compiler: fallbacks were recorded" true
      (c_fallbacks () > cfb0)
  end

(* --- C lane coverage: every emittable kernel of every workload arms a
   C kernel, with no C-lane fallback --- *)

let test_c_differential () =
  let cc = Jit.c_toolchain_available () in
  let cfb0 = c_fallbacks () in
  List.iter
    (fun (w : Workload.t) ->
      let _, fg, args_fn = functionalized w in
      let kernels, shapes = emittable_kernels fg (args_fn ()) in
      let entries =
        Jit.prepare_groups ~mode:Jit.Auto ~dir:jit_dir ~kernels ~shapes
      in
      if cc then begin
        check_int
          (Printf.sprintf "%s: every emittable kernel armed" w.Workload.name)
          (List.length kernels) (List.length entries);
        check
          (Printf.sprintf "%s: armed groups are the emitted kernels' groups"
             w.Workload.name)
          true
          (armed_groups entries = kernel_groups kernels)
      end
      else
        check_int
          (Printf.sprintf "%s: no C compiler, nothing armed" w.Workload.name)
          0 (List.length entries))
    (Registry.all @ Registry.extensions);
  if cc then
    check_int "no C-lane fallback on any workload" 0 (c_fallbacks () - cfb0)
  else
    check "no C compiler: C fallbacks were recorded" true
      (c_fallbacks () > cfb0)

(* --- a unit holds only kernels the engine arms ---

   The engine's plan leaves in-loop assigns out of every group (they run
   per node so they can donate), so no kernel is emitted for them: every
   entry a unit returns finds its group, and [Scheduler.arm] arms them
   all.  lstm is four kernels: the zero fill, the clones, the matmul and
   the cell. *)

let test_unit_kernels_all_armed () =
  let cc = Jit.c_toolchain_available () in
  List.iter
    (fun name ->
      let w = Result.get_ok (Functs.find_workload name) in
      let _, fg, args_fn = functionalized w in
      let plan = Engine.plan fg in
      let kernels, shapes = emittable_kernels fg (args_fn ()) in
      let entries =
        Jit.prepare_groups ~mode:Jit.Auto ~dir:jit_dir
          ~kernels:(Codegen.emit fg plan ~shapes) ~shapes
      in
      let prepared =
        Scheduler.prepare ~parallel:false ~pool:(Pool.shared ~lanes:1)
          ~loop_grain:2 ~kernel_grain:8192 ~graph:fg ~shapes ~plan
      in
      check_int (name ^ ": every entry is armed") (List.length entries)
        (Scheduler.arm prepared { Jit.groups = entries; loops = [] });
      if cc then
        check_int (name ^ ": every kernel in the unit has an entry")
          (List.length kernels) (List.length entries);
      if name = "lstm" then
        check_int "lstm: the unit holds four kernels" 4
          (List.length kernels))
    [ "lstm"; "nasrnn"; "seq2seq" ]

(* --- the emitted unit: one function per kernel, for one ISA --- *)

let count_sub ~sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_render_per_isa () =
  let w = Result.get_ok (Functs.find_workload "lstm") in
  let _, fg, args_fn = functionalized w in
  let kernels, shapes = emittable_kernels fg (args_fn ()) in
  let emitted =
    List.filter_map
      (fun k -> Result.to_option (Functs_jit.Jit_emit.emit k ~shapes))
      kernels
  in
  let n = List.length emitted in
  check "lstm emits C kernels" true (n > 0);
  let units =
    List.map
      (fun isa -> (isa, Jit.render_source ~isa emitted))
      [ "avx512f"; "avx2"; "default" ]
  in
  check_int "each ISA has its own digest" 3
    (List.length (List.sort_uniq compare (List.map (fun (_, (d, _)) -> d) units)));
  List.iter
    (fun (isa, (_, src)) ->
      check_int
        (Printf.sprintf "%s unit declares no function clones" isa)
        0
        (count_sub ~sub:"target_clones" src);
      List.iter
        (fun target_isa ->
          let target = Printf.sprintf {|target("%s")|} target_isa in
          check_int
            (Printf.sprintf "%s unit: %s per kernel" isa target)
            (if target_isa = isa then n else 0)
            (count_sub ~sub:("FUNCTS_ISA(" ^ target) src);
          (* lstm's matmul kernel brings the GEMM, instantiated for the
             unit's ISA *)
          check_int
            (Printf.sprintf "%s unit: the GEMM under %s" isa target)
            (if target_isa = isa then 1 else 0)
            (count_sub ~sub:("#pragma GCC " ^ target) src))
        [ "avx512f"; "avx2" ])
    units;
  check "the host ISA is avx512f, avx2 or default" true
    (List.mem (Jit.isa ()) [ "avx512f"; "avx2"; "default" ]);
  (* shape-generic text: no value id or shape in the unit, and a nest
     reads each outer extent from its ints slot once at entry (the
     whole-kernel entry runs to the first one) *)
  List.iter
    (fun (em : Functs_jit.Jit_emit.emitted) ->
      check (em.e_name ^ ": no shape in a case comment") true
        (count_sub ~sub:" : [" em.e_fn = 0);
      (* lstm's temporaries all live in local rows: only stored outputs
         get a buffer *)
      check (em.e_name ^ ": every buffer is a stored output") true
        (Array.for_all
           (fun (st : Functs_jit.Jit_emit.estmt) -> st.e_store)
           em.e_stmts);
      Array.iter
        (fun (st : Functs_jit.Jit_emit.estmt) ->
          let v = st.e_out in
          if v.Graph.v_name <> "" then
            check_int
              (Printf.sprintf "%s %s: no value id in the unit" em.e_name
                 v.Graph.v_name)
              0
              (count_sub ~sub:(Codegen.value_ref v) em.e_fn))
        em.e_stmts;
      Array.iteri
        (fun j (nest : Functs_jit.Jit_emit.enest) ->
          let label = Printf.sprintf "%s nest %d" em.e_name j in
          check_int (label ^ ": one case") 1
            (count_sub ~sub:(Printf.sprintf "case %d: { /* " j) em.e_fn);
          Array.iteri
            (fun d _ ->
              check_int
                (Printf.sprintf "%s: extent %d read from ints" label d)
                1
                (count_sub
                   ~sub:
                     (Printf.sprintf "const long n%d = ints[%d];\n" d
                        (nest.e_ext_pos + d))
                   em.e_fn))
            nest.e_ext)
        em.e_nests;
      let outer =
        Array.fold_left
          (fun n (nest : Functs_jit.Jit_emit.enest) ->
            if Array.length nest.e_ext >= 1 then n + 1 else n)
          0 em.e_nests
      in
      check_int
        (em.e_name ^ ": every nest with outer dims runs to the runtime n0")
        outer
        (count_sub ~sub:"sh = nest < 0 ? n0 : hi;" em.e_fn))
    emitted

(* --- one unit per workload: every serving bucket shares it --- *)

let buckets = [ 1; 4; 16 ]

let test_bucket_sharing () =
  if Jit.c_toolchain_available () then
    List.iter
      (fun name ->
        let w = Result.get_ok (Functs.find_workload name) in
        let seq = w.Workload.default_seq in
        let graphs =
          List.map
            (fun k ->
              let batch = k * w.Workload.default_batch in
              let g = Workload.graph w ~batch ~seq in
              let fg = Graph.clone g in
              ignore (Passes.tensorssa_pipeline fg);
              let args () = w.Workload.inputs ~batch ~seq in
              (k, fg, args, Eval.run g (clone_args (args ()))))
            buckets
        in
        let fns =
          List.map
            (fun (_, fg, args, _) ->
              let kernels, shapes = emittable_kernels fg (args ()) in
              List.map
                (fun k ->
                  (Result.get_ok (Functs_jit.Jit_emit.emit k ~shapes)).e_fn)
                kernels)
            graphs
        in
        check (name ^ ": emits C kernels") true (List.hd fns <> []);
        List.iteri
          (fun i f ->
            check
              (Printf.sprintf "%s b%d: e_fn equals b1's" name
                 (List.nth buckets i))
              true
              (f = List.hd fns))
          fns;
        List.iter
          (fun domains ->
            with_scratch_dir "share" @@ fun dir ->
            Jit.clear_loaded ();
            let co0 = c_compiles () and h0 = c_hits () and m0 = c_misses () in
            List.iter
              (fun (k, fg, args, expected) ->
                let label = Printf.sprintf "%s b%d d%d" name k domains in
                let eng =
                  Engine.prepare ~domains ~cache:false ~jit:Jit.Auto
                    ~jit_dir:dir fg
                    ~inputs:(Engine.input_shapes (args ()))
                in
                Engine.await_jit eng;
                check
                  (label ^ ": outputs equal the interpreter")
                  true
                  (agrees eng expected (args ()));
                let s = Engine.stats eng in
                check (label ^ ": groups armed natively") true
                  (s.Scheduler.cjit_groups > 0);
                check (label ^ ": native kernels ran") true
                  (s.Scheduler.cjit_runs > 0))
              graphs;
            let label = Printf.sprintf "%s d%d" name domains in
            check_int (label ^ ": one cc for every bucket") 1
              (c_compiles () - co0);
            check_int (label ^ ": one artifact miss") 1 (c_misses () - m0);
            check_int
              (label ^ ": the other buckets hit")
              (List.length buckets - 1)
              (c_hits () - h0))
          [ 1; 2 ])
      [ "lstm"; "nasrnn"; "seq2seq" ]

(* --- adversarial extents: a unit launched at extents other than the
   compiling engine's --- *)

let tensor_args seed shapes =
  let st = Random.State.make [| seed |] in
  List.map (fun s -> Value.Tensor (Tensor.rand st s)) shapes

let graph_of name params body =
  let b = Builder.create name ~params in
  Builder.return b (body b);
  let g = Builder.graph b in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  (g, fg)

(* Index lists of every read of the parameter named [name]. *)
let reads_of name (kernels : Codegen.kernel list) =
  let acc = ref [] in
  let rec go = function
    | Codegen.Cread (v, ixs) -> if v.Graph.v_name = name then acc := ixs :: !acc
    | Codegen.Clit _ | Codegen.Copaque _ | Codegen.Cmatmul _ -> ()
    | Codegen.Cunary (_, e) | Codegen.Creduce (_, _, _, e) -> go e
    | Codegen.Cbinary (_, a, b) | Codegen.Ccond (_, a, b) ->
        go a;
        go b
    | Codegen.Cwhere (c, a, b) ->
        go c;
        go a;
        go b
  in
  List.iter
    (fun (k : Codegen.kernel) ->
      List.iter (fun (s : Codegen.statement) -> go s.s_expr) k.k_stmts)
    kernels;
  !acc

let test_adversarial_extents () =
  if Jit.c_toolchain_available () then begin
    (* a real broadcast: [b] has extent 1 on the batch dim; only where
       the output's batch extent exceeds 1 is its index pinned to 0 *)
    let g, fg =
      graph_of "broadcast"
        [ ("x", Dtype.Tensor); ("b", Dtype.Tensor) ]
        (fun b ->
          let x = Builder.param b 0 in
          [ Builder.add b (Builder.mul b x x) (Builder.param b 1) ])
    in
    List.iter
      (fun batch ->
        let args () = tensor_args batch [ [| batch; 3; 5 |]; [| 1; 3; 5 |] ] in
        let kernels, _ = emittable_kernels fg (args ()) in
        let first = List.map List.hd (reads_of "b" kernels) in
        check
          (Printf.sprintf "broadcast b%d: b is read" batch)
          true (first <> []);
        check
          (Printf.sprintf "broadcast b%d: batch index of b is %s" batch
             (if batch > 1 then "pinned to 0" else "the loop variable"))
          true
          (List.for_all
             (fun ix ->
               ix = if batch > 1 then Codegen.Iconst 0 else Codegen.Ivar "i0")
             first);
        with_scratch_dir "bcast" @@ fun dir ->
        let eng = jit_engine ~dir fg (args ()) in
        let got = Engine.run eng (args ()) in
        check
          (Printf.sprintf "broadcast b%d: armed natively" batch)
          true
          ((Engine.stats eng).Scheduler.cjit_runs > 0);
        check
          (Printf.sprintf "broadcast b%d: bitwise the interpreter's" batch)
          true
          (Equiv.bitwise (Eval.run g (args ())) got))
      [ 4; 1 ];
    (* extent-0 and extent-1 outputs from a unit compiled at extent 4:
       an elementwise statement and a reduction, both rank >= 2 *)
    let g, fg =
      graph_of "generic"
        [ ("x", Dtype.Tensor); ("y", Dtype.Tensor) ]
        (fun b ->
          let x = Builder.param b 0 and y = Builder.param b 1 in
          let p = Builder.mul b x y in
          [ Builder.add b p x; Builder.sum_dim b p ~dim:2 ~keepdim:false ])
    in
    with_scratch_dir "extents" (fun dir ->
        Jit.clear_loaded ();
        List.iteri
          (fun i batch ->
            let args () =
              tensor_args (10 + batch) [ [| batch; 3; 5 |]; [| batch; 3; 5 |] ]
            in
            let co0 = c_compiles () and h0 = c_hits () in
            let eng = jit_engine ~dir fg (args ()) in
            let got = Engine.run eng (args ()) in
            let s = Engine.stats eng in
            let label = Printf.sprintf "generic b%d" batch in
            check_int (label ^ ": compiles only at the first extent")
              (if i = 0 then 1 else 0)
              (c_compiles () - co0);
            if i > 0 then
              check (label ^ ": the unit came from the cache") true
                (c_hits () > h0);
            check (label ^ ": armed natively") true
              (s.Scheduler.cjit_groups > 0);
            check_int (label ^ ": no launch fell back") 0
              s.Scheduler.jit_fallbacks;
            check
              (label ^ ": bitwise the interpreter's")
              true
              (Equiv.bitwise (Eval.run g (args ())) got))
          [ 4; 1; 0 ]);
    (* a dynamic select: the launch guard's extent terms come from the
       launching engine, so in-range indices never trip at any batch and
       -1 / one past the end always do *)
    let g, fg =
      graph_of "select_guard"
        [ ("x", Dtype.Tensor); ("i", Dtype.Scalar Dtype.Int) ]
        (fun b ->
          let row =
            Builder.op1 b
              (Op.Access (Op.Select { dim = 1 }))
              [ Builder.param b 0; Builder.param b 1 ]
          in
          [ Builder.add b (Builder.mul b row row) row ])
    in
    with_scratch_dir "guard" (fun dir ->
        Jit.clear_loaded ();
        let args batch i () =
          tensor_args (20 + batch) [ [| batch; 3; 5 |] ] @ [ Value.Int i ]
        in
        let engine batch = jit_engine ~dir fg (args batch 1 ()) in
        let exact eng batch i =
          Equiv.bitwise
            (Eval.run g (args batch i ()))
            (Engine.run eng (args batch i ()))
        in
        ignore (engine 4);
        List.iter
          (fun batch ->
            let co0 = c_compiles () in
            let label = Printf.sprintf "select b%d" batch in
            let eng = engine batch in
            check_int (label ^ ": served by the b4 unit") 0
              (c_compiles () - co0);
            List.iter
              (fun i ->
                check
                  (Printf.sprintf "%s, index %d: bitwise the interpreter's"
                     label i)
                  true (exact eng batch i))
              [ 0; 2 ];
            check_int (label ^ ": in-range indices never trip the guard") 0
              (Engine.stats eng).Scheduler.jit_fallbacks;
            check (label ^ ": ran natively") true
              ((Engine.stats eng).Scheduler.cjit_runs > 0);
            (* -1: the guard trips, the launch reruns node by node, and the
               node-by-node select wraps like the interpreter's *)
            check
              (label ^ ", index -1: bitwise the interpreter's")
              true (exact eng batch (-1));
            check_int (label ^ ", index -1: one launch fell back") 1
              (Engine.stats eng).Scheduler.jit_fallbacks;
            check_int (label ^ ", index -1: the group was disarmed") 0
              (Engine.stats eng).Scheduler.cjit_groups;
            (* one past the end: the guard trips before any read, and the
               node-by-node rerun raises like the interpreter *)
            let eng = engine batch in
            let raises f = match f () with _ -> false | exception _ -> true in
            check (label ^ ", index 3: the interpreter raises") true
              (raises (fun () -> Eval.run g (args batch 3 ())));
            check (label ^ ", index 3: the engine raises") true
              (raises (fun () -> Engine.run eng (args batch 3 ())));
            check_int (label ^ ", index 3: one launch fell back") 1
              (Engine.stats eng).Scheduler.jit_fallbacks)
          [ 1; 2; 4 ])
  end

(* --- IEEE special values: Float.max/min/equal and Max reductions --- *)

let specials =
  [|
    Float.nan;
    Int64.float_of_bits 0xFFF8_0000_0000_0123L (* negative NaN, payload *);
    -0.;
    0.;
    Float.infinity;
    Float.neg_infinity;
    Int64.float_of_bits 1L (* smallest subnormal *);
    -.Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL (* largest subnormal *);
    1.;
    -1.;
  |]

let nan_literal = Int64.float_of_bits 0x7FF8_0000_0000_0042L

let test_special_values () =
  if not (Jit.c_toolchain_available ()) then ()
  else begin
    let n = Array.length specials in
    let b =
      Builder.create "specials"
        ~params:
          [ ("x", Dtype.Tensor); ("y", Dtype.Tensor); ("z", Dtype.Tensor) ]
    in
    let x = Builder.param b 0 and y = Builder.param b 1 in
    let z = Builder.param b 2 in
    let lit = Builder.full b [| n; n |] (Builder.float b nan_literal) in
    Builder.return b
      [
        Builder.binary b Scalar.Max x y;
        Builder.binary b Scalar.Min x y;
        Builder.binary b Scalar.Eq x y;
        Builder.binary b Scalar.Max lit x;
        Builder.max_dim b z ~dim:1 ~keepdim:false;
        (* a select, not [x*y + (1-x)*x]: signed zeros, infinities and
           NaNs pass through untouched *)
        Builder.where b x y x;
      ];
    let g = Builder.graph b in
    (* every ordered pair: x walks the rows, y the columns; z holds each
       pair as a row for the from--inf Max reduction *)
    let args () =
      [
        Value.Tensor
          (Tensor.of_array [| n; n |]
             (Array.init (n * n) (fun k -> specials.(k / n))));
        Value.Tensor
          (Tensor.of_array [| n; n |]
             (Array.init (n * n) (fun k -> specials.(k mod n))));
        Value.Tensor
          (Tensor.of_array [| n * n; 2 |]
             (Array.init (2 * n * n) (fun k ->
                  let p = k / 2 in
                  specials.(if k mod 2 = 0 then p / n else p mod n))));
      ]
    in
    let expected = Eval.run g (args ()) in
    let fg = Graph.clone g in
    ignore (Passes.tensorssa_pipeline fg);
    let eng = jit_engine fg (args ()) in
    let got = Engine.run eng (args ()) in
    let s = Engine.stats eng in
    check "the special-value groups armed natively" true
      (s.Scheduler.cjit_groups > 0);
    check_int "the first run launched every group on the C lane"
      s.Scheduler.cjit_groups s.Scheduler.cjit_runs;
    List.iteri
      (fun i (e, o) ->
        check
          (Printf.sprintf "output %d is bitwise the interpreter's" i)
          true
          (Equiv.bitwise [ e ] [ o ]))
      (List.combine expected got)
  end

(* --- inputs of another shape: native kernels bake the prepared
   shapes in, so the engine must refuse a run it cannot get right --- *)

let test_other_shape_rejected () =
  let covered = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let g, fg, args_fn = functionalized w in
      let doubled =
        w.Workload.inputs ~batch:(2 * w.Workload.default_batch)
          ~seq:w.Workload.default_seq
      in
      match Eval.run g (clone_args doubled) with
      | exception _ -> () (* the graph bakes its batch in *)
      | _ ->
          incr covered;
          List.iter
            (fun jit ->
              let eng =
                Engine.prepare ~cache:false ~jit ~jit_dir fg
                  ~inputs:(Engine.input_shapes (args_fn ()))
              in
              check
                (Printf.sprintf "%s, JIT %s: a 2x-batch input raises"
                   w.Workload.name (Jit.mode_to_string jit))
                true
                (match Engine.run eng doubled with
                | _ -> false
                | exception Eval.Runtime_error _ -> true))
            [ Jit.Off; Jit.Auto ])
    Registry.all;
  check "some workload runs at 2x batch in the interpreter" true (!covered > 0)

(* --- launch-validation failure: the launch reruns node by node --- *)

let test_launch_fallback_per_node () =
  if Jit.c_toolchain_available () then begin
    (* A dynamic select index of -1: the interpreter wraps it, while the
       native kernel's launch guard sees a read before its buffer. *)
    let b =
      Builder.create "negative_select"
        ~params:[ ("x", Dtype.Tensor); ("i", Dtype.Scalar Dtype.Int) ]
    in
    let x = Builder.param b 0 and i = Builder.param b 1 in
    let row = Builder.op1 b (Op.Access (Op.Select { dim = 0 })) [ x; i ] in
    let e = Builder.exp b row in
    Builder.return b [ Builder.mul b e e ];
    let g = Builder.graph b in
    let fg = Graph.clone g in
    ignore (Passes.tensorssa_pipeline fg);
    let args () =
      [ Value.Tensor (Tensor.rand (Random.State.make [| 5 |]) [| 4; 3 |]);
        Value.Int (-1) ]
    in
    let expected = Eval.run g (args ()) in
    Journal.clear ();
    let eng = jit_engine fg (args ()) in
    check "the group was armed" true
      ((Engine.stats eng).Scheduler.cjit_groups > 0);
    for _ = 1 to 3 do
      check "outputs equal the interpreter" true
        (agrees eng expected (args ()))
    done;
    let s = Engine.stats eng in
    check_int "one launch-validation demotion" 1 s.Scheduler.jit_fallbacks;
    check_int "the native kernel was disarmed" 0 s.Scheduler.cjit_groups;
    check_int "no native launch completed" 0 s.Scheduler.kernel_runs;
    check "every launch was timed per node, and per_node pinned" true
      (List.exists
         (fun (r : Scheduler.attribution_row) ->
           r.Scheduler.at_kind = `Group && r.Scheduler.at_arm = "per_node"
           && r.Scheduler.at_launches = 3)
         (Engine.attribution eng));
    check "the demotion was journaled with arm per_node" true
      (List.exists
         (fun (e : Journal.entry) ->
           e.j_kind = Journal.Jit_demote && e.j_site = "scheduler.group"
           && e.j_arm = "per_node")
         (Journal.entries ()))
  end

(* --- loop kernels: the whole recurrence in one launch ---

   The RNNs' sequential loops compile to one loop kernel each once the
   graph is optimized for its input shapes (the served path), so the
   copy into [out[t]] folds into a row write.  Forced to [native], every
   loop must give the bits the armed [seq] path gives (its groups forced
   to [c-jit]), at every bucket size the unit serves. *)

let rnn_engine name ~batch ~forced =
  let w = Result.get_ok (Functs.find_workload name) in
  let seq = w.Workload.default_seq in
  let g = Workload.graph w ~batch ~seq in
  let args () = w.Workload.inputs ~batch ~seq in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline ~inputs:(Engine.input_shapes (args ())) fg);
  let eng = jit_engine fg (args ()) in
  (* every group on its C kernel, so the [seq] body runs the same code
     (libmvec included) the loop kernel calls *)
  for gid = 0 to (Engine.plan fg).Fusion.group_count - 1 do
    try Engine.force eng (`Group, gid) `Cjit with Invalid_argument _ -> ()
  done;
  let loops =
    List.filter_map
      (fun (n : Graph.node) ->
        match n.Graph.n_op with Op.Loop -> Some n.Graph.n_id | _ -> None)
      (Graph.all_nodes fg)
  in
  let pinned =
    List.filter
      (fun id ->
        match Engine.force eng (`Loop, id) forced with
        | () -> true
        | exception Invalid_argument _ -> false)
      loops
  in
  (g, eng, args, pinned)

let test_native_loops_bitwise () =
  let cc = Jit.c_toolchain_available () in
  List.iter
    (fun name ->
      List.iter
        (fun batch ->
          let label = Printf.sprintf "%s b%d" name batch in
          let g, native, args, pinned = rnn_engine name ~batch ~forced:`Native in
          let _, seq, _, _ = rnn_engine name ~batch ~forced:`Seq in
          if cc then begin
            check (label ^ ": every loop has a loop kernel") true (pinned <> []);
            check_int (label ^ ": native_loops") (List.length pinned)
              (Engine.stats native).Scheduler.native_loops;
            List.iter
              (fun id ->
                List.iter
                  (fun arm ->
                    check (label ^ ": a loop kernel site has no batched arm")
                      true
                      (match Engine.force native (`Loop, id) arm with
                      | () -> false
                      | exception Invalid_argument _ -> true))
                  [ `Batched ])
              pinned
          end;
          let got = Engine.run native (args ()) in
          let want = Engine.run seq (args ()) in
          if name = "lstm" then begin
            let s = Engine.stats seq in
            check_int (label ^ ": seq: batched_loops") 0 s.Scheduler.batched_loops
          end;
          check (label ^ ": native bits = armed seq bits") true
            (Equiv.bitwise want got);
          check (label ^ ": native vs interpreter") true
            (agrees native (Eval.run g (args ())) (args ()));
          if cc then
            check (label ^ ": one launch per loop per run") true
              (List.for_all
                 (fun (r : Scheduler.attribution_row) ->
                   r.Scheduler.at_kind <> `Loop
                   || r.Scheduler.at_arm = "native"
                      && r.Scheduler.at_launches = 2)
                 (Engine.attribution native)))
        [ 1; 4; 16 ])
    [ "lstm"; "nasrnn"; "seq2seq" ]

(* lstm's weight bound as a non-contiguous view of the same shape: the
   loop kernel's matmul needs a row-major weight, so the launch fails
   validation, the loop is demoted to [seq] for good, and the outputs
   still equal the interpreter's. *)
let test_native_loop_demotes () =
  if Jit.c_toolchain_available () then begin
    let g, eng, args, pinned = rnn_engine "lstm" ~batch:4 ~forced:`Native in
    check "lstm's loop was pinned native" true (pinned <> []);
    let strided () =
      match args () with
      | [ x; Value.Tensor u; h; c ] ->
          let ut = Tensor.clone (Tensor.transpose u ~dim0:0 ~dim1:1) in
          [ x; Value.Tensor (Tensor.transpose ut ~dim0:0 ~dim1:1); h; c ]
      | _ -> Alcotest.fail "lstm takes four arguments"
    in
    (match strided () with
    | [ _; Value.Tensor u; _; _ ] ->
        check "the weight is a non-contiguous view" false (Tensor.is_contiguous u)
    | _ -> ());
    Journal.clear ();
    let fb0 = (Engine.stats eng).Scheduler.jit_fallbacks in
    for _ = 1 to 2 do
      check "outputs equal the interpreter" true
        (agrees eng (Eval.run g (strided ())) (strided ()))
    done;
    let s = Engine.stats eng in
    check "the launch was demoted" true (s.Scheduler.jit_fallbacks > fb0);
    check_int "no loop kernel left armed" 0 s.Scheduler.native_loops;
    check "the demotion was journaled with arm seq" true
      (List.exists
         (fun (e : Journal.entry) ->
           e.j_kind = Journal.Jit_demote && e.j_site = "scheduler.loop"
           && e.j_arm = "seq")
         (Journal.entries ()));
    check "native can no longer be forced" true
      (List.for_all
         (fun id ->
           match Engine.force eng (`Loop, id) `Native with
           | () -> false
           | exception Invalid_argument _ -> true)
         pinned)
  end

(* --- forced fallback: missing compiler --- *)

let test_fallback_missing_toolchain () =
  let w = Result.get_ok (Functs.find_workload "attention") in
  let g, fg, args_fn = functionalized w in
  let expected = Eval.run g (clone_args (args_fn ())) in
  let fb0 = c_fallbacks () and cco0 = c_compiles () in
  let got, stats =
    with_scratch_dir "nocc" @@ fun dir ->
    Jit.clear_loaded ();
    Jit.set_c_compiler "functs-definitely-missing-cc";
    Fun.protect
      ~finally:(fun () ->
        Jit.set_c_compiler "cc";
        Jit.clear_loaded ())
      (fun () ->
        let eng = jit_engine ~dir fg (args_fn ()) in
        let got = Engine.run eng (args_fn ()) in
        (got, Engine.stats eng))
  in
  check "outputs still equal the interpreter" true
    (Equiv.bitwise expected got);
  check_int "no group armed without a compiler" 0 stats.Scheduler.cjit_groups;
  check "every rejected group was recorded as a fallback" true
    (c_fallbacks () > fb0);
  check_int "the missing compiler was never invoked" 0 (c_compiles () - cco0)

(* --- forced C-compile failure: the groups run node by node ---

   On attention, and on yolact: attention produces no exact zero, while
   yolact's crop writes +0.0, so a per-node path that flipped the sign of
   a zero shows only there ([Equiv.bitwise] tells +0.0 from -0.0). *)

let holds_pos_zero =
  List.exists (function
    | Value.Tensor t ->
        Array.exists
          (fun x -> Int64.equal (Int64.bits_of_float x) 0L)
          (Tensor.to_flat_array t)
    | Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _ -> false)

let test_c_compile_failure_demotion ?(zeros = false) name () =
  let w = Result.get_ok (Functs.find_workload name) in
  let g, fg, args_fn = functionalized w in
  let expected = Eval.run g (clone_args (args_fn ())) in
  if zeros then
    check "the reference outputs hold +0.0" true (holds_pos_zero expected);
  let cfb0 = c_fallbacks () and cco0 = c_compiles () in
  let broken = fake_compiler "echo 'fake compiler: refusing' >&2\nexit 1" in
  let got, stats, rows =
    with_scratch_dir "broken" @@ fun dir ->
    Jit.clear_loaded ();
    Jit.set_c_compiler broken;
    Fun.protect
      ~finally:(fun () ->
        Jit.set_c_compiler "cc";
        Jit.clear_loaded ();
        Sys.remove broken)
      (fun () ->
        let eng = jit_engine ~dir fg (args_fn ()) in
        let got = Engine.run eng (args_fn ()) in
        (got, Engine.stats eng, Engine.attribution eng))
  in
  check "outputs still equal the interpreter" true
    (Equiv.bitwise expected got);
  check_int "no native kernel from a failing compiler" 0
    stats.Scheduler.cjit_groups;
  check "the compile failures were recorded" true (c_fallbacks () > cfb0);
  check_int "no compile succeeded" 0 (c_compiles () - cco0);
  check_int "no kernel launched" 0 stats.Scheduler.kernel_runs;
  check "the groups launched node by node" true
    (List.exists
       (fun (r : Scheduler.attribution_row) -> r.Scheduler.at_kind = `Group)
       rows
    && List.for_all
         (fun (r : Scheduler.attribution_row) ->
           r.Scheduler.at_kind = `Loop
           || (r.Scheduler.at_arm <> "c-jit" && r.Scheduler.at_launches > 0))
         rows)

(* --- bounded compile: a hung compiler is killed --- *)

let test_hung_compiler_killed () =
  let w = Result.get_ok (Functs.find_workload "attention") in
  let g, fg, args_fn = functionalized w in
  let expected = Eval.run g (clone_args (args_fn ())) in
  let cfb0 = c_fallbacks () in
  let hung = fake_compiler "exec sleep 30" in
  Journal.clear ();
  with_scratch_dir "hung" @@ fun dir ->
  Jit.clear_loaded ();
  Jit.set_c_compiler hung;
  Jit.set_c_compile_bound 0.5;
  let t0 = Unix.gettimeofday () in
  let got, stats =
    Fun.protect
      ~finally:(fun () ->
        Jit.set_c_compile_bound 45.0;
        Jit.set_c_compiler "cc";
        Jit.clear_loaded ();
        Sys.remove hung)
      (fun () ->
        let eng = jit_engine ~dir fg (args_fn ()) in
        let got = Engine.run eng (args_fn ()) in
        (got, Engine.stats eng))
  in
  check "prepare returned well before the compiler would have" true
    (Unix.gettimeofday () -. t0 < 10.);
  check "outputs still equal the interpreter" true
    (Equiv.bitwise expected got);
  check_int "nothing armed" 0 stats.Scheduler.cjit_groups;
  check "the kill ticked jit.c.fallback" true (c_fallbacks () > cfb0);
  check "the kill was journaled as a demotion to per-node" true
    (List.exists
       (fun (e : Journal.entry) ->
         e.j_kind = Journal.Jit_demote && e.j_site = "jit.c.compile"
         && e.j_arm = "per_node")
       (Journal.entries ()));
  check "no lockfile was left behind" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".lock"))
       (try Sys.readdir dir with _ -> [||]))

(* --- artifact cache: the second "process" is a disk hit --- *)

let test_artifact_disk_hit () =
  if not (Jit.c_toolchain_available ()) then () (* covered by fallback tests *)
  else begin
    let w = Result.get_ok (Functs.find_workload "nasrnn") in
    let _, fg, args_fn = functionalized w in
    let eng = jit_engine fg (args_fn ()) in
    ignore (Engine.run eng (args_fn ()));
    check "cold prepare armed the groups" true
      ((Engine.stats eng).Scheduler.cjit_groups > 0);
    (* Forget every in-process table: the next prepare behaves like a
       fresh process against the same artifact directory. *)
    Jit.clear_loaded ();
    let h0 = c_hits () and m0 = c_misses () and co0 = c_compiles () in
    let eng2 = jit_engine fg (args_fn ()) in
    ignore (Engine.run eng2 (args_fn ()));
    check "warm prepare armed the groups too" true
      ((Engine.stats eng2).Scheduler.cjit_groups > 0);
    check "the artifact was found on disk" true (c_hits () > h0);
    check_int "no recompile on the warm path" 0 (c_compiles () - co0);
    check_int "no cache miss on the warm path" 0 (c_misses () - m0)
  end

(* --- C artifact cache: one .so per graph, loaded as-is when warm --- *)

let test_c_artifact_disk_hit () =
  if not (Jit.c_toolchain_available ()) then ()
  else
    with_scratch_dir "so" @@ fun dir ->
    let sos () =
      List.filter
        (fun f -> Filename.check_suffix f ".so")
        (Array.to_list (try Sys.readdir dir with _ -> [||]))
    in
    let w = Result.get_ok (Functs.find_workload "nasrnn") in
    let _, fg, args_fn = functionalized w in
    let kernels, shapes = emittable_kernels fg (args_fn ()) in
    Jit.clear_loaded ();
    let cold = Jit.prepare_groups ~mode:Jit.Auto ~dir ~kernels ~shapes in
    check "cold prepare armed C kernels" true (cold <> []);
    let so =
      match sos () with
      | [ f ] -> Filename.concat dir f
      | fs ->
          Alcotest.failf "expected one .so artifact, found %d"
            (List.length fs)
    in
    let mtime0 = (Unix.stat so).Unix.st_mtime in
    Jit.clear_loaded ();
    let h0 = c_hits () and m0 = c_misses () and co0 = c_compiles () in
    let warm = Jit.prepare_groups ~mode:Jit.Auto ~dir ~kernels ~shapes in
    check_int "warm prepare armed the same groups" (List.length cold)
      (List.length warm);
    check "warm armed groups are the emitted kernels' groups" true
      (armed_groups warm = kernel_groups kernels);
    check_int "one disk hit for the graph's .so" 1 (c_hits () - h0);
    check_int "no C recompile on the warm path" 0 (c_compiles () - co0);
    check_int "no C cache miss on the warm path" 0 (c_misses () - m0);
    check_int "still one .so artifact" 1 (List.length (sos ()));
    check "the .so was loaded, not rewritten" true
      ((Unix.stat so).Unix.st_mtime = mtime0)

(* --- forced fallback: unusable artifact directory --- *)

let test_fallback_bogus_dir () =
  let w = Result.get_ok (Functs.find_workload "attention") in
  let g, fg, args_fn = functionalized w in
  let expected = Eval.run g (clone_args (args_fn ())) in
  (* a path below a regular file can never become a directory *)
  let blocker = Filename.temp_file "functs-jit" ".blk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove blocker with _ -> ())
    (fun () ->
      let fb0 = c_fallbacks () in
      Jit.clear_loaded ();
      let eng =
        jit_engine ~dir:(Filename.concat blocker "jit") fg (args_fn ())
      in
      let got = Engine.run eng (args_fn ()) in
      Jit.clear_loaded ();
      check "outputs still equal the interpreter" true
        (Equiv.bitwise expected got);
      check_int "no group armed in an unusable dir" 0
        (Engine.stats eng).Scheduler.cjit_groups;
      check "fallbacks were recorded" true (c_fallbacks () > fb0))

(* --- hygiene: stale and retired artifacts are evicted on first use --- *)

let test_stale_version_eviction () =
  with_scratch_dir "stale" @@ fun dir ->
  let plant name contents =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    path
  in
  let stale_c = plant "functs_cjit_v0_deadbeef.so" "not a shared object" in
  (* what the retired OCaml lane left behind *)
  let legacy = plant "functs_jit_v2_deadbeef.cmxs" "not a plugin" in
  let legacy_lock = plant "functs_jit_v2_deadbeef.cmxs.lock" "" in
  let ev0 = c_evicted () in
  Jit.clear_loaded ();
  let w = Result.get_ok (Functs.find_workload "nasrnn") in
  let _, fg, args_fn = functionalized w in
  ignore (jit_engine ~dir fg (args_fn ()));
  Jit.clear_loaded ();
  check "the stale C artifact is gone" false (Sys.file_exists stale_c);
  check "the legacy artifact is gone" false (Sys.file_exists legacy);
  check "the legacy lockfile is gone" false (Sys.file_exists legacy_lock);
  check_int "every eviction was counted" 3 (c_evicted () - ev0)

(* --- tiered JIT: engines serve per-node while cc runs, then arm --- *)

let session_config dir =
  { Config.default with Config.jit = Jit.Auto; jit_dir = dir; domains = 1 }

let alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error _ -> false

let leftovers dir =
  List.filter
    (fun f ->
      Filename.check_suffix f ".lock" || String.starts_with ~prefix:"build-" f)
    (Array.to_list (try Sys.readdir dir with _ -> [||]))

(* Run [f] with [cc] replaced by a fake compiler running [body], and
   restore the real one (and the default bound) afterwards. *)
let with_compiler body f =
  let fake = fake_compiler body in
  Jit.clear_loaded ();
  Jit.set_c_compiler fake;
  Fun.protect
    ~finally:(fun () ->
      Jit.set_c_compile_bound 45.0;
      Jit.set_c_compiler "cc";
      Jit.clear_loaded ();
      Sys.remove fake)
    f

(* A compiler that waits for [gate] to exist, then runs the real [cc]:
   the test decides when the background compile may finish. *)
let gated_cc gate =
  Printf.sprintf "while [ ! -e %s ]; do sleep 0.01; done\nexec cc \"$@\""
    (Filename.quote gate)

let open_gate gate = close_out (open_out gate)

(* The pid a fake compiler wrote to [pidfile], once it has. *)
let compiler_pid pidfile =
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists pidfile)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let ic = open_in pidfile in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> int_of_string (String.trim (input_line ic)))

let test_cancel_on_close () =
  let pidfile = Filename.temp_file "functs-cc" ".pid" in
  Sys.remove pidfile;
  Fun.protect ~finally:(fun () -> try Sys.remove pidfile with _ -> ())
  @@ fun () ->
  with_scratch_dir "cancel" @@ fun dir ->
  with_compiler
    (Printf.sprintf "echo $$ > %s.tmp && mv %s.tmp %s\nexec sleep 30"
       pidfile pidfile pidfile)
  @@ fun () ->
  let w = Result.get_ok (Functs.find_workload "lstm") in
  let sess =
    match Session.create ~config:(session_config dir) w with
    | Ok s -> s
    | Error e -> Alcotest.failf "create: %s" (Error.to_string e)
  in
  let pid = compiler_pid pidfile in
  check "the compiler runs after create returned" true (alive pid);
  check "the compile holds a lockfile and a build directory" true
    (List.length (leftovers dir) = 2);
  Session.close sess;
  check "close killed and reaped the compiler" false (alive pid);
  check "no lockfile or build directory remains" true (leftovers dir = []);
  Session.close sess;
  (* outside a session: the engine's own cancel does the same *)
  Sys.remove pidfile;
  let _, fg, args_fn = functionalized w in
  let eng =
    Engine.prepare ~cache:false ~jit:Jit.Auto ~jit_dir:dir fg
      ~inputs:(Engine.input_shapes (args_fn ()))
  in
  check "a miss leaves the engine pending" true (Engine.jit_pending eng);
  let pid = compiler_pid pidfile in
  Engine.cancel_jit eng;
  check "cancel_jit killed the compiler" false (alive pid);
  check "cancel_jit left nothing behind" true (leftovers dir = [])

(* ROADMAP item 7's acceptance: a hung compiler under a serving session.
   create returns at once, requests are served per-node bitwise, and
   once the bound passes the next poll kills the compiler, ticks
   jit.c.fallback and journals the demotion — without an exception. *)
let test_hung_compiler_session () =
  let w = Result.get_ok (Functs.find_workload "lstm") in
  let batch = w.Workload.default_batch and seq = w.Workload.default_seq in
  let reference = Workload.graph w ~batch ~seq in
  let args () = w.Workload.inputs ~batch ~seq in
  let expected = Eval.run reference (clone_args (args ())) in
  let bound = 3.0 in
  with_scratch_dir "hung-session" @@ fun dir ->
  with_compiler "exec sleep 30" @@ fun () ->
  Jit.set_c_compile_bound bound;
  Journal.clear ();
  let fb0 = c_fallbacks () in
  let t0 = Unix.gettimeofday () in
  let sess =
    match Session.create ~config:(session_config dir) w with
    | Ok s -> s
    | Error e -> Alcotest.failf "create: %s" (Error.to_string e)
  in
  let created = Unix.gettimeofday () -. t0 in
  check
    (Printf.sprintf "create returned in %.2f s, well inside the %.0f s bound"
       created bound)
    true
    (created < bound /. 2.);
  let serve () =
    match Session.run sess (args ()) with
    | Ok got -> Equiv.bitwise expected got
    | Error e -> Alcotest.failf "request failed: %s" (Error.to_string e)
  in
  let served = ref 0 in
  while Unix.gettimeofday () -. t0 < bound do
    check "a request served per-node matches the interpreter bitwise" true
      (serve ());
    incr served;
    Unix.sleepf 0.05
  done;
  check "requests were served while cc hung" true (!served > 0);
  check "nothing was armed" true
    (match Session.engine_stats sess with
    | Some s -> s.Scheduler.cjit_groups = 0
    | None -> false);
  Unix.sleepf 0.1;
  check "the request after the bound matches bitwise" true (serve ());
  check "the kill ticked jit.c.fallback" true (c_fallbacks () > fb0);
  check "the kill was journaled as a demotion to per-node" true
    (List.exists
       (fun (e : Journal.entry) ->
         e.j_kind = Journal.Jit_demote && e.j_site = "jit.c.compile"
         && e.j_arm = "per_node")
       (Journal.entries ()));
  check "no Jit_arm was recorded" false
    (List.exists
       (fun (e : Journal.entry) -> e.j_kind = Journal.Jit_arm)
       (Journal.entries ()));
  Session.close sess;
  check "no lockfile or build directory remains" true (leftovers dir = [])

(* Engines at b1/b4/b16 of one workload from a fresh directory: one
   compile they all join, per-node outputs bitwise before it arms,
   native outputs after, and as many armed groups as the synchronous
   path arms.  b1 arms through its run-time poll, b4/b16 through
   await_jit. *)
let test_late_arm () =
  if Jit.c_toolchain_available () then
    List.iter
      (fun name ->
        let w = Result.get_ok (Functs.find_workload name) in
        let seq = w.Workload.default_seq in
        let gate = Filename.temp_file "functs-gate" "" in
        Sys.remove gate;
        Fun.protect ~finally:(fun () -> try Sys.remove gate with _ -> ())
        @@ fun () ->
        with_scratch_dir "late" @@ fun dir ->
        with_compiler (gated_cc gate) @@ fun () ->
        let co0 = c_compiles () and h0 = c_hits () and m0 = c_misses () in
        let engines =
          List.map
            (fun k ->
              let batch = k * w.Workload.default_batch in
              let g = Workload.graph w ~batch ~seq in
              let fg = Graph.clone g in
              ignore (Passes.tensorssa_pipeline fg);
              let args () = w.Workload.inputs ~batch ~seq in
              let expected = Eval.run g (clone_args (args ())) in
              let eng =
                Engine.prepare ~cache:false ~jit:Jit.Auto ~jit_dir:dir fg
                  ~inputs:(Engine.input_shapes (args ()))
              in
              (Printf.sprintf "%s b%d" name k, fg, args, expected, eng))
            buckets
        in
        check_int (name ^ ": one miss") 1 (c_misses () - m0);
        check_int (name ^ ": the other buckets join it") 2 (c_hits () - h0);
        List.iter
          (fun (label, _, args, expected, eng) ->
            check (label ^ ": pending after prepare") true
              (Engine.jit_pending eng);
            for _ = 1 to 2 do
              check (label ^ ": per-node outputs bitwise before arming") true
                (Equiv.bitwise expected (Engine.run eng (args ())))
            done;
            check_int (label ^ ": nothing armed yet") 0
              (Engine.stats eng).Scheduler.cjit_groups)
          engines;
        open_gate gate;
        List.iteri
          (fun i (label, _, args, expected, eng) ->
            (if i = 0 then begin
               let deadline = Unix.gettimeofday () +. 60. in
               while Engine.jit_pending eng && Unix.gettimeofday () < deadline do
                 let got, native = Equiv.run eng (args ()) in
                 (* the run whose poll arms the unit launches natively *)
                 check
                   (label
                   ^
                   if native then ": outputs of the arming run"
                   else ": outputs bitwise while cc runs")
                   true
                   (Equiv.matches ~native expected got);
                 Unix.sleepf 0.01
               done
             end
             else Engine.await_jit eng);
            check (label ^ ": armed") false (Engine.jit_pending eng);
            for _ = 1 to 4 do
              check (label ^ ": outputs after arming") true
                (agrees eng expected (args ()))
            done;
            check (label ^ ": native kernels ran") true
              ((Engine.stats eng).Scheduler.cjit_runs > 0))
          engines;
        check_int (name ^ ": one cc") 1 (c_compiles () - co0);
        (* a warm replica: a disk hit arms inside prepare, the
           synchronous path, and arms as many groups *)
        Jit.clear_loaded ();
        List.iter
          (fun (label, fg, args, _, late) ->
            let eng =
              Engine.prepare ~cache:false ~jit:Jit.Auto ~jit_dir:dir fg
                ~inputs:(Engine.input_shapes (args ()))
            in
            check (label ^ ": warm prepare leaves no pending compile") false
              (Engine.jit_pending eng);
            let synchronous = (Engine.stats eng).Scheduler.cjit_groups in
            check (label ^ ": warm prepare arms groups") true (synchronous > 0);
            check_int
              (label ^ ": the late arm armed as many groups")
              synchronous (Engine.stats late).Scheduler.cjit_groups)
          engines;
        check_int (name ^ ": still one cc") 1 (c_compiles () - co0))
      [ "lstm"; "nasrnn"; "seq2seq" ]

(* --- fused nests: random single-group programs, forced to C ---

   Each program is a chain of fusible operators over a [a; b; n] input
   [x] and a row [r] of [n]: unary maps (relu's exact zeros included),
   binary maps, a binary op against [r] broadcast over the outer dims,
   shifted innermost reads (slices of the last dim), slice assigns
   (guarded reads at a shifted offset), [where] selects, and an optional
   Add/Max reduction.  Extents of 1 are common.  Inputs mix exact and
   signed zeros, small integers and a value whose [exp] overflows.  Each
   program runs its groups forced to [c-jit] on the sequential engine
   and on two lanes with a one-element grain (so every nest of two or
   more rows splits across launches), against the interpreter under the
   oracle rule. *)

module Fuzz = struct
  module G = QCheck2.Gen

  type op =
    | Un of Scalar.unary * int
    | Bin of Scalar.binary * int * int
    | Row of Scalar.binary * int  (** value op r, broadcast over a and b *)
    | Shift of int * int * int  (** value[..., s:e] *)
    | Put of int * int * int  (** value i with value j written at [s:] *)
    | Sel of int * int * int * int  (** where(i > j, k, l) *)

  type prog = {
    a : int;
    b : int;
    n : int;
    ops : op list;
    also : int;  (** an earlier value returned too (a stored member) *)
    reduce : ([ `Sum | `Max ] * int) option;  (** of the last value, over dim *)
    seed : int;
  }

  (* value 0 is [x]; op [k] defines value [k + 1] *)
  let extent_after exts = function
    | Un (_, i) | Bin (_, i, _) | Row (_, i) | Put (i, _, _) | Sel (_, _, i, _) ->
        exts.(i)
    | Shift (_, s, e) -> e - s

  let gen_op exts =
    let open G in
    let nv = Array.length exts in
    let same i = List.filter (fun j -> exts.(j) = exts.(i)) (List.init nv Fun.id) in
    let* i = int_bound (nv - 1) in
    let m = exts.(i) in
    oneof
      [
        map
          (fun u -> Un (u, i))
          (oneofl Scalar.[ Neg; Abs; Exp; Tanh; Sigmoid; Relu ]);
        map2
          (fun o j -> Bin (o, i, j))
          (oneofl Scalar.[ Add; Sub; Mul; Max; Min ])
          (oneofl (same i));
        map (fun o -> Row (o, i)) (oneofl Scalar.[ Add; Mul; Max ]);
        (let* s = int_bound (m - 1) in
         let+ e = int_range (s + 1) m in
         Shift (i, s, e));
        (let smaller =
           List.filter (fun j -> exts.(j) <= m) (List.init nv Fun.id)
         in
         let* j = oneofl smaller in
         let+ s = int_bound (m - exts.(j)) in
         Put (i, j, s));
        map3 (fun j k l -> Sel (i, j, k, l)) (oneofl (same i)) (oneofl (same i))
          (oneofl (same i));
      ]

  let gen =
    let open G in
    let* a = int_range 1 3 in
    let* b = int_range 1 3 in
    let* n = oneofl [ 1; 2; 3; 4; 6 ] in
    let* nops = int_range 1 7 in
    let rec go k exts acc =
      if k = 0 then return (exts, List.rev acc)
      else
        let* op = gen_op exts in
        go (k - 1) (Array.append exts [| extent_after exts op |]) (op :: acc)
    in
    let* _, ops = go nops [| n |] [] in
    let* also = int_bound nops in
    let* reduce =
      opt (pair (oneofl [ `Sum; `Max ]) (oneofl [ 0; 2 ]))
    in
    let+ seed = int in
    { a; b; n; ops; also; reduce; seed }

  let to_string p =
    let v i = Printf.sprintf "v%d" i in
    let line k op =
      Printf.sprintf "  v%d = %s" (k + 1)
        (match op with
        | Un (u, i) -> Printf.sprintf "%s(%s)" (Scalar.unary_name u) (v i)
        | Bin (o, i, j) ->
            Printf.sprintf "%s(%s, %s)" (Scalar.binary_name o) (v i) (v j)
        | Row (o, i) -> Printf.sprintf "%s(%s, r)" (Scalar.binary_name o) (v i)
        | Shift (i, s, e) -> Printf.sprintf "%s[..., %d:%d]" (v i) s e
        | Put (i, j, s) -> Printf.sprintf "%s with %s at [..., %d:]" (v i) (v j) s
        | Sel (i, j, k, l) ->
            Printf.sprintf "where(%s > %s, %s, %s)" (v i) (v j) (v k) (v l))
    in
    Printf.sprintf "x: [%d, %d, %d], seed %d\n%s\n  return v%d, v%d%s" p.a p.b
      p.n p.seed
      (String.concat "\n" (List.mapi line p.ops))
      (List.length p.ops) p.also
      (match p.reduce with
      | None -> ""
      | Some (k, d) ->
          Printf.sprintf ", %s over dim %d"
            (match k with `Sum -> "sum" | `Max -> "max")
            d)

  let graph p =
    let bld =
      Builder.create "fused_nest"
        ~params:[ ("x", Dtype.Tensor); ("r", Dtype.Tensor) ]
    in
    let x = Builder.param bld 0 and r = Builder.param bld 1 in
    let int = Builder.int bld in
    let slice ~dim v s e =
      Builder.op1 bld (Op.Access (Op.Slice { dim; step = 1 })) [ v; int s; int e ]
    in
    let vals = ref [| x |] and exts = ref [| p.n |] in
    List.iter
      (fun op ->
        let v i = !vals.(i) in
        let out =
          match op with
          | Un (u, i) -> Builder.unary bld u (v i)
          | Bin (o, i, j) -> Builder.binary bld o (v i) (v j)
          | Row (o, i) ->
              let m = !exts.(i) in
              Builder.binary bld o (v i) (if m = p.n then r else slice ~dim:0 r 0 m)
          | Shift (i, s, e) -> slice ~dim:2 (v i) s e
          | Put (i, j, s) ->
              Builder.op1 bld
                (Op.Assign (Op.Slice { dim = 2; step = 1 }))
                [ v i; v j; int s; int (s + !exts.(j)) ]
          | Sel (i, j, k, l) ->
              Builder.where bld (Builder.binary bld Scalar.Gt (v i) (v j)) (v k) (v l)
        in
        vals := Array.append !vals [| out |];
        exts := Array.append !exts [| extent_after !exts op |])
      p.ops;
    let last = !vals.(Array.length !vals - 1) in
    let reduced =
      match p.reduce with
      | None -> []
      | Some (`Sum, dim) -> [ Builder.sum_dim bld last ~dim ~keepdim:false ]
      | Some (`Max, dim) -> [ Builder.max_dim bld last ~dim ~keepdim:false ]
    in
    Builder.return bld ((last :: !vals.(p.also) :: reduced));
    Builder.graph bld

  let specials = [| 0.; -0.; 1.; -1.; 0.5; -2.5; 3.; 800. |]

  let args p =
    let st = Random.State.make [| p.seed |] in
    let t shape =
      let t = Tensor.zeros shape in
      Tensor.mapi_inplace t (fun _ _ ->
          if Random.State.int st 3 = 0 then
            specials.(Random.State.int st (Array.length specials))
          else Random.State.float st 4. -. 2.);
      Value.Tensor t
    in
    [ t [| p.a; p.b; p.n |]; t [| p.n |] ]
end

let fuzz_native = ref 0

let prop_fused_nests =
  QCheck2.Test.make ~name:"fused nests forced to C vs interpreter" ~count:200
    ~print:Fuzz.to_string Fuzz.gen (fun p ->
      let g = Fuzz.graph p in
      let expected = Eval.run g (Fuzz.args p) in
      let fg = Graph.clone g in
      ignore (Passes.tensorssa_pipeline fg);
      let inputs = Engine.input_shapes (Fuzz.args p) in
      List.for_all
        (fun (parallel, domains) ->
          let eng =
            Engine.prepare ~parallel ~domains ~kernel_grain:1 ~cache:false
              ~jit:Jit.Auto ~jit_dir fg ~inputs
          in
          Engine.await_jit eng;
          ignore (Engine.run eng (Fuzz.args p));
          List.iter
            (fun (r : Scheduler.attribution_row) ->
              if r.Scheduler.at_kind = `Group then
                match Engine.force eng (`Group, r.Scheduler.at_id) `Cjit with
                | () -> ()
                | exception Invalid_argument _ -> ())
            (Engine.attribution eng);
          let got, native = Equiv.run eng (Fuzz.args p) in
          if native then incr fuzz_native;
          Equiv.matches ~native expected got)
        [ (false, 1); (true, 2) ])

let test_fused_nests () =
  QCheck_alcotest.to_alcotest prop_fused_nests |> fun (_, _, run) ->
  run ();
  if Jit.c_toolchain_available () then
    check "most random programs launched native code" true
      (!fuzz_native >= 300)

let () =
  Alcotest.run "jit"
    [
      ( "jit",
        [
          Alcotest.test_case "differential vs interpreter" `Slow
            test_differential;
          Alcotest.test_case "C lane differential vs interpreter" `Slow
            test_c_differential;
          Alcotest.test_case "units hold only kernels the engine arms" `Quick
            test_unit_kernels_all_armed;
          Alcotest.test_case "emitted unit: one function per kernel per ISA"
            `Quick test_render_per_isa;
          Alcotest.test_case "serving buckets share one C unit" `Slow
            test_bucket_sharing;
          Alcotest.test_case "adversarial extents from a shared unit" `Quick
            test_adversarial_extents;
          Alcotest.test_case "special values bitwise vs interpreter" `Quick
            test_special_values;
          Alcotest.test_case "fused nests forced to C vs interpreter" `Slow
            test_fused_nests;
          Alcotest.test_case "inputs of another shape raise" `Quick
            test_other_shape_rejected;
          Alcotest.test_case "native loop kernels bitwise vs armed seq" `Slow
            test_native_loops_bitwise;
          Alcotest.test_case "a strided weight demotes the loop kernel" `Quick
            test_native_loop_demotes;
          Alcotest.test_case "launch-validation failure reruns per-node"
            `Quick test_launch_fallback_per_node;
          Alcotest.test_case "fallback: missing toolchain" `Quick
            test_fallback_missing_toolchain;
          Alcotest.test_case "C compile failure demotes to per-node" `Quick
            (test_c_compile_failure_demotion "attention");
          Alcotest.test_case "C compile failure demotes to per-node on zeros"
            `Quick (test_c_compile_failure_demotion ~zeros:true "yolact");
          Alcotest.test_case "hung compiler is killed" `Quick
            test_hung_compiler_killed;
          Alcotest.test_case "fallback: unusable artifact dir" `Quick
            test_fallback_bogus_dir;
          Alcotest.test_case "artifact cache: warm disk hit" `Quick
            test_artifact_disk_hit;
          Alcotest.test_case "C artifact cache: warm disk hit" `Quick
            test_c_artifact_disk_hit;
          Alcotest.test_case "close cancels the background compile" `Quick
            test_cancel_on_close;
          Alcotest.test_case "hung compiler under a serving session" `Quick
            test_hung_compiler_session;
          Alcotest.test_case "late arm: per-node, then native, every bucket"
            `Slow test_late_arm;
          Alcotest.test_case "stale-version eviction" `Quick
            test_stale_version_eviction;
        ] );
    ]
