open Functs_ir
open Functs_core
open Functs_interp
open Functs_workloads
module Engine = Functs_exec.Engine
module Shape_infer = Functs_ir.Shape_infer
module Tensor = Functs_tensor.Tensor
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics
module Journal = Functs_obs.Journal

(* --- process-wide serve.* metrics (session stats are per-session) --- *)

let m_submitted = Metrics.counter "serve.submitted"
let m_completed = Metrics.counter "serve.completed"
let m_shed = Metrics.counter "serve.shed"
let m_fallbacks = Metrics.counter "serve.interp_fallbacks"
let m_overloaded = Metrics.counter "serve.overloaded"
let m_deadline = Metrics.counter "serve.deadline_expired"
let m_cancelled = Metrics.counter "serve.cancelled"
let m_batches = Metrics.counter "serve.batches"
let h_batch = Metrics.histogram "serve.batch_size"

(* Bucket occupancy: how many requests each batched engine run carried.
   One counter per configured bucket size ([serve.bucket.b<k>], counted
   in runs), plus the occupancy histogram in requests-per-run. *)
let h_occupancy = Metrics.histogram "serve.bucket_occupancy"

(* Per-stage latency histograms, one per hand-off in the request
   lifecycle (enqueue → dequeue → engine-acquired → run-done →
   completed).  Each stage is observed at [finish] from the ticket's
   stamps, so a stage only records when both of its endpoints were
   actually reached (an expired request has no exec stage). *)
let h_queue_wait = Metrics.histogram "serve.latency.queue_wait_us"
let h_stage_batch = Metrics.histogram "serve.latency.batch_us"
let h_stage_exec = Metrics.histogram "serve.latency.exec_us"
let h_total = Metrics.histogram "serve.latency.total_us"
let g_queue_depth = Metrics.gauge "serve.queue_depth"
let g_queue_peak = Metrics.gauge "serve.queue_depth_peak"

type stats = {
  submitted : int;
  completed : int;
  shed : int;
  interp_fallbacks : int;
  overloaded : int;
  deadline_expired : int;
  cancelled : int;
  batches : int;
  batched_runs : int;
  bucket_runs : (int * int) list;
  shards : int;
  max_queue_depth : int;
}

let zero_stats =
  {
    submitted = 0;
    completed = 0;
    shed = 0;
    interp_fallbacks = 0;
    overloaded = 0;
    deadline_expired = 0;
    cancelled = 0;
    batches = 0;
    batched_runs = 0;
    bucket_runs = [];
    shards = 1;
    max_queue_depth = 0;
  }

let bump_bucket runs k =
  let rec go = function
    | [] -> [ (k, 1) ]
    | (k', n) :: rest when k' = k -> (k', n + 1) :: rest
    | kv :: rest -> kv :: go rest
  in
  go runs

(* A ticket owns its own mutex/condvar pair so awaiting producers never
   contend on the session lock, and the dispatcher's completion broadcast
   wakes exactly the requester.  Lifecycle stamps are written by exactly
   one side at a time (producer at enqueue, dispatcher afterwards) and
   only read after [await] returns or under the ticket lock, so they
   need no extra synchronisation.  A stamp is 0. until reached.

   [t_claimed] arbitrates the dispatcher against [cancel]: whoever flips
   it under the ticket lock owns the outcome, so a cancel that races the
   engine run can neither lose its error nor double-count the request. *)
type ticket = {
  t_id : int;  (* process-unique; keys the trace flow arrow *)
  t_args : Value.t list;
  t_shape : string;
  t_deadline : float option;  (* absolute Unix time *)
  t_enq : float;
  mutable t_deq : float;  (* popped off the queue *)
  mutable t_batched : float;  (* micro-batch assembled *)
  mutable t_engine : float;  (* engine acquired (prepare returned) *)
  mutable t_rundone : float;  (* engine/interp run returned *)
  t_lock : Mutex.t;
  t_cond : Condition.t;
  mutable t_claimed : bool;  (* an executor owns this ticket's outcome *)
  mutable t_result : (Value.t list, Error.t) result option;
  mutable t_done : float;
}

let next_ticket_id = Atomic.make 1

type input = { in_args : Value.t list; in_deadline_us : float option }

let input ?deadline_us args = { in_args = args; in_deadline_us = deadline_us }

(* One compile variant: the workload's program instantiated at
   [bk_size × native batch], lowered once at session create. *)
type bucket = {
  bk_size : int;  (* requests per batched run *)
  bk_graph : Graph.t;  (* lowered per the profile, contractually frozen *)
  bk_inputs : Shape_infer.shape option list;
}

(* A dispatcher shard's engines, by bucket size.  Shard 0's table holds
   the engines [create] compiled and warmed, so native-shape requests
   never probe the process-wide compile cache: an LRU eviction or
   [Engine.clear_cache] cannot put a rebuild on the request path.  Extra
   shards fill their own tables lazily with uncached engines: two shards
   sharing one engine would only serialize on its run mutex, and
   [~cache:false] builds leave the LRU cache and its hit/miss counters
   untouched. *)
type shard = (int, Engine.t) Hashtbl.t

type t = {
  s_config : Config.t;
  s_profile : Compiler_profile.t;
  s_reference : Graph.t;  (* eager semantics, for the interpreter fallback *)
  s_graph : Graph.t;  (* lowered per the profile, contractually frozen *)
  s_native_sig : string;  (* shape signature the buckets were compiled for *)
  s_batching : Workload.batching option;  (* None: serve at bucket 1 only *)
  s_buckets : bucket list;  (* descending size; always ends with size 1 *)
  s_dispatch_limit : int;  (* same-shape requests popped per dispatch *)
  s_bucket_counters : (int * Metrics.counter) list;
  s_lock : Mutex.t;
  s_wake : Condition.t;  (* queue became non-empty / state changed *)
  s_queue : ticket Queue.t;
  mutable s_closing : bool;
  mutable s_paused : bool;
  mutable s_batch_broken : bool;  (* runtime demotion: batch runs misbehaved *)
  mutable s_noted_bucket : int;  (* last journaled bucket choice; 0 = none *)
  mutable s_stats : stats;
  mutable s_dispatchers : unit Domain.t list;
  mutable s_engine : Engine.t option;
      (* most recently acquired engine, for attribution readout — the
         shape-keyed cache may hand different engines per signature;
         profiling reads whichever served last *)
  mutable s_owned : Engine.t list;
      (* every engine this session prepared (under [s_lock]): [close]
         cancels their pending JIT compiles *)
}

let locked t f =
  Mutex.lock t.s_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.s_lock) f

(* The batching key: tensor shapes (scalars as "_") joined with ";". *)
let shape_signature args =
  String.concat ";"
    (List.map
       (function
         | Value.Tensor tn ->
             String.concat "x"
               (Array.to_list
                  (Array.map string_of_int (Tensor.shape tn)))
         | Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _ -> "_")
       args)

let clone_args =
  List.map (function
    | Value.Tensor tn -> Value.Tensor (Tensor.clone tn)
    | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)

(* --- completion --- *)

let observe_stages tk now =
  let stage h a b = if a > 0. && b > 0. && b >= a then Metrics.observe h (1e6 *. (b -. a)) in
  stage h_queue_wait tk.t_enq tk.t_deq;
  stage h_stage_batch tk.t_deq tk.t_engine;
  stage h_stage_exec tk.t_engine tk.t_rundone;
  stage h_total tk.t_enq now

(* Claim before publishing: stats are bumped between the claim and the
   result store, so a caller whose [await] returns already sees this
   completion in [stats], and a racing [cancel] of an already-running
   request finds the ticket claimed and reports [false] instead of
   overwriting a delivered response. *)
let finish t tk result =
  let now = Unix.gettimeofday () in
  Mutex.lock tk.t_lock;
  let owner = (not tk.t_claimed) && tk.t_result = None in
  if owner then tk.t_claimed <- true;
  Mutex.unlock tk.t_lock;
  if owner then begin
    Metrics.incr m_completed;
    observe_stages tk now;
    locked t (fun () ->
        t.s_stats <- { t.s_stats with completed = t.s_stats.completed + 1 });
    Mutex.lock tk.t_lock;
    tk.t_result <- Some result;
    tk.t_done <- now;
    Condition.broadcast tk.t_cond;
    Mutex.unlock tk.t_lock
  end

(* The interpreter mutates argument tensors (imperative semantics), so
   the fallback path clones; the engine marks arguments foreign and
   never writes them. *)
let run_interp t tk =
  locked t (fun () ->
      t.s_stats <-
        { t.s_stats with interp_fallbacks = t.s_stats.interp_fallbacks + 1 });
  Metrics.incr m_fallbacks;
  Tracer.instant "serve.interp_fallback";
  match Eval.run t.s_reference (clone_args tk.t_args) with
  | outputs ->
      tk.t_rundone <- Unix.gettimeofday ();
      finish t tk (Ok outputs)
  | exception Eval.Runtime_error m -> finish t tk (Error (Error.Runtime_error m))
  | exception exn ->
      finish t tk (Error (Error.Runtime_error (Printexc.to_string exn)))

let shed_one t tk err =
  locked t (fun () ->
      t.s_stats <- { t.s_stats with shed = t.s_stats.shed + 1 });
  Metrics.incr m_shed;
  finish t tk (Error err)

let degrade t tk err =
  match t.s_config.Config.policy with
  | `Interp_fallback -> run_interp t tk
  | `Shed -> shed_one t tk err

let run_engine t eng tk =
  match Engine.run eng tk.t_args with
  | outputs ->
      tk.t_rundone <- Unix.gettimeofday ();
      finish t tk (Ok outputs)
  | exception exn ->
      let m =
        match exn with Eval.Runtime_error m -> m | e -> Printexc.to_string e
      in
      degrade t tk (Error.Engine_failure m)

let expire t tk =
  locked t (fun () ->
      t.s_stats <-
        { t.s_stats with deadline_expired = t.s_stats.deadline_expired + 1 });
  Metrics.incr m_deadline;
  Journal.record Deadline_degrade "serve" ~id:tk.t_id
    ~arm:
      (match t.s_config.Config.policy with
      | `Interp_fallback -> "interp_fallback"
      | `Shed -> "shed")
    ~detail:tk.t_shape
    ~value:(1e6 *. (Unix.gettimeofday () -. tk.t_enq));
  degrade t tk Error.Deadline_exceeded

(* --- engines --- *)

let prepare_engine t ?cache graph ~inputs =
  let cfg = t.s_config in
  let eng =
    Engine.prepare ~profile:t.s_profile ~parallel:true
      ~domains:cfg.Config.domains ~loop_grain:cfg.Config.loop_grain
      ~kernel_grain:cfg.Config.kernel_grain
      ~cache:(Option.value cache ~default:cfg.Config.cache)
      ~jit:cfg.Config.jit ~jit_dir:cfg.Config.jit_dir graph ~inputs
  in
  t.s_engine <- Some eng;
  locked t (fun () ->
      if not (List.memq eng t.s_owned) then t.s_owned <- eng :: t.s_owned);
  eng

(* Requests outside the native signature (ad-hoc shapes) always go
   through the shared shape-keyed cache at bucket 1. *)
let engine_for t args =
  prepare_engine t t.s_graph ~inputs:(Engine.input_shapes args)

let bucket_engine t (sh : shard) bk =
  match Hashtbl.find_opt sh bk.bk_size with
  | Some eng ->
      t.s_engine <- Some eng;
      eng
  | None ->
      let eng = prepare_engine t ~cache:false bk.bk_graph ~inputs:bk.bk_inputs in
      Hashtbl.add sh bk.bk_size eng;
      eng

(* [s_buckets] is sorted descending and always ends with size 1. *)
let base_bucket t = List.nth t.s_buckets (List.length t.s_buckets - 1)

(* --- batched scatter / gather --- *)

(* Shared ([None]-axis) arguments must be the same physical tensor in
   every bucket member: descriptor equality over the same storage is the
   contract (cheap, and exactly what a caller reusing one weight tensor
   across submits provides).  Scalars compare structurally. *)
let same_shared a b =
  match (a, b) with
  | Value.Tensor x, Value.Tensor y ->
      Tensor.same_storage x y
      && x.Tensor.offset = y.Tensor.offset
      && x.Tensor.shape = y.Tensor.shape
      && x.Tensor.strides = y.Tensor.strides
  | x, y -> x = y

let shared_compatible (bx : Workload.batching) a b =
  List.for_all2
    (fun ax (va, vb) ->
      match ax with Some _ -> true | None -> same_shared va vb)
    bx.Workload.input_axes
    (List.map2 (fun x y -> (x, y)) a.t_args b.t_args)

let scatter (bx : Workload.batching) group =
  let arg_arrays = List.map (fun tk -> Array.of_list tk.t_args) group in
  let head = List.hd arg_arrays in
  List.mapi
    (fun i ax ->
      match ax with
      | None -> head.(i)
      | Some dim ->
          Value.Tensor
            (Tensor.concat_axis ~dim
               (List.map
                  (fun a ->
                    match a.(i) with
                    | Value.Tensor tn -> tn
                    | _ -> invalid_arg "Session.scatter: non-tensor batch axis")
                  arg_arrays)))
    bx.Workload.input_axes

let rec transpose = function
  | [] -> []
  | [] :: _ -> []
  | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

let gather (bx : Workload.batching) k outputs =
  let per_output =
    List.map2
      (fun ax out ->
        match (ax, out) with
        | Some dim, Value.Tensor tn ->
            let total = (Tensor.shape tn).(dim) in
            if total mod k <> 0 then
              invalid_arg "Session.gather: batched extent not divisible"
            else
              let per = total / k in
              List.map
                (fun p -> Value.Tensor p)
                (Tensor.split_axis ~dim ~parts:(List.init k (fun _ -> per)) tn)
        | (None | Some _), v -> List.init k (fun _ -> v))
      bx.Workload.output_axes outputs
  in
  transpose per_output

(* --- the dispatcher ---

   Per shard, one domain, one loop: wait for work, pop a same-shape run
   of requests, decompose it greedily into the largest compiled batch
   buckets that fit, scatter each bucket's inputs into one batched
   buffer, run the bucket engine once, and split the outputs back per
   request.  Exits only when closing AND drained, so [close] never loses
   queued requests. *)

(* Journal the bucket chooser's decision when it changes, so
   [functs why] explains which bucket requests land in. *)
let note_bucket t k ~live =
  if t.s_noted_bucket <> k then begin
    let kind =
      if t.s_noted_bucket = 0 then Journal.Tuner_pin else Journal.Tuner_flip
    in
    t.s_noted_bucket <- k;
    Journal.record kind "serve.bucket" ~arm:(string_of_int k)
      ~detail:(Printf.sprintf "live=%d" live)
      ~value:(float_of_int k)
  end

let count_run t k ~batched =
  Metrics.incr m_batches;
  Metrics.observe h_batch (float_of_int k);
  Metrics.observe h_occupancy (float_of_int k);
  (match List.assoc_opt k t.s_bucket_counters with
  | Some c -> Metrics.incr c
  | None -> ());
  locked t (fun () ->
      t.s_stats <-
        {
          t.s_stats with
          bucket_runs = bump_bucket t.s_stats.bucket_runs k;
          batched_runs = (t.s_stats.batched_runs + if batched then 1 else 0);
        })

let rec split_at n = function
  | rest when n = 0 -> ([], rest)
  | [] -> ([], [])
  | x :: rest ->
      let taken, left = split_at (n - 1) rest in
      (x :: taken, left)

(* One bucket: scatter → run once → gather.  Any failure (engine raise,
   a mis-declared axis tripping scatter/gather validation) degrades every
   member per policy; axis trouble additionally demotes the session to
   bucket-1 serving for good. *)
let run_bucket t sh bx bk group =
  let k = List.length group in
  count_run t k ~batched:true;
  Tracer.span_args "serve.bucket_run"
    ~args:(fun () -> [ ("bucket", string_of_int bk.bk_size); ("n", string_of_int k) ])
    (fun () ->
      match
        let batched_args = scatter bx group in
        let eng = bucket_engine t sh bk in
        let acquired = Unix.gettimeofday () in
        List.iter (fun tk -> tk.t_engine <- acquired) group;
        let outputs = Engine.run eng batched_args in
        let rundone = Unix.gettimeofday () in
        List.iter (fun tk -> tk.t_rundone <- rundone) group;
        gather bx k outputs
      with
      | per_request ->
          List.iter2 (fun tk outs -> finish t tk (Ok outs)) group per_request
      | exception exn ->
          let m =
            match exn with
            | Eval.Runtime_error m -> m
            | Invalid_argument m ->
                t.s_batch_broken <- true;
                Journal.record Tuner_expire "serve.bucket" ~arm:"demoted"
                  ~detail:m;
                m
            | e -> Printexc.to_string e
          in
          List.iter (fun tk -> degrade t tk (Error.Engine_failure m)) group)

let run_singles t acquire group =
  match group with
  | [] -> ()
  | _ -> (
      count_run t (List.length group) ~batched:false;
      match acquire () with
      | eng ->
          let acquired = Unix.gettimeofday () in
          List.iter (fun tk -> tk.t_engine <- acquired) group;
          List.iter (fun tk -> run_engine t eng tk) group
      | exception exn ->
          (* prepare itself failed: same degradation as a failing run *)
          let m = Printexc.to_string exn in
          List.iter (fun tk -> degrade t tk (Error.Engine_failure m)) group)

(* Skip tickets whose outcome is already owned (cancelled before
   dispatch); each submitted ticket passes through here exactly once, so
   the cancelled count is exact. *)
let drop_cancelled t batch =
  let cancelled, live =
    List.partition
      (fun tk ->
        Mutex.lock tk.t_lock;
        let gone = tk.t_claimed || tk.t_result <> None in
        Mutex.unlock tk.t_lock;
        gone)
      batch
  in
  (match cancelled with
  | [] -> ()
  | _ ->
      let n = List.length cancelled in
      Metrics.incr ~by:n m_cancelled;
      locked t (fun () ->
          t.s_stats <- { t.s_stats with cancelled = t.s_stats.cancelled + n }));
  live

let split_expired t live =
  let now = Unix.gettimeofday () in
  let expired, live =
    List.partition
      (fun tk ->
        match tk.t_deadline with Some d -> now > d | None -> false)
      live
  in
  List.iter (fun tk -> expire t tk) expired;
  live

(* Greedy decomposition: serve the largest bucket that fits, recurse on
   the remainder.  Deadlines are re-checked at every step, so a member
   whose deadline lapses while earlier buckets of the same dispatch run
   is degraded mid-bucket instead of riding a stale slot. *)
let rec serve_buckets t sh bx group =
  match drop_cancelled t (split_expired t group) with
  | [] -> ()
  | live ->
      let n = List.length live in
      let bk =
        match List.find_opt (fun b -> b.bk_size <= n) t.s_buckets with
        | Some b -> b
        | None -> base_bucket t
      in
      note_bucket t bk.bk_size ~live:n;
      let chunk, rest = split_at bk.bk_size live in
      if bk.bk_size > 1 then run_bucket t sh bx bk chunk
      else run_singles t (fun () -> bucket_engine t sh bk) chunk;
      serve_buckets t sh bx rest

let process_batch t sh = function
  | [] -> ()
  | first :: _ as batch ->
      let now = Unix.gettimeofday () in
      List.iter (fun tk -> tk.t_batched <- now) batch;
      Tracer.span_args "serve.batch"
        ~args:(fun () ->
          [ ("shape", first.t_shape); ("n", string_of_int (List.length batch)) ])
        (fun () ->
          (* the flow arrows from each producer's submit span land on
             this batch span, so Perfetto shows which submits fed it *)
          List.iter (fun tk -> Tracer.flow_finish "serve.req" ~id:tk.t_id) batch;
          match t.s_batching with
          | Some bx
            when first.t_shape = t.s_native_sig && not t.s_batch_broken ->
              (* bucket members must also agree on their shared (weight)
                 arguments; incompatible members split into their own
                 greedy decompositions *)
              let rec by_compat = function
                | [] -> ()
                | head :: _ as remaining ->
                    let mine, others =
                      List.partition (shared_compatible bx head) remaining
                    in
                    serve_buckets t sh bx mine;
                    by_compat others
              in
              by_compat batch
          | Some _ | None ->
              (* one at a time at bucket 1: the native shape from the
                 shard's table, an ad-hoc shape through the shared cache *)
              let acquire () =
                if first.t_shape = t.s_native_sig then
                  bucket_engine t sh (base_bucket t)
                else engine_for t first.t_args
              in
              run_singles t acquire (drop_cancelled t (split_expired t batch)))

let rec dispatch_loop t sh =
  let action =
    locked t (fun () ->
        while
          (Queue.is_empty t.s_queue || t.s_paused) && not t.s_closing
        do
          Condition.wait t.s_wake t.s_lock
        done;
        if Queue.is_empty t.s_queue && t.s_closing then `Exit
        else begin
          (* closing overrides pause so close always drains *)
          let head = Queue.pop t.s_queue in
          let batch = ref [ head ] in
          let limit = t.s_dispatch_limit in
          let continue = ref true in
          while
            !continue && List.length !batch < limit
            && not (Queue.is_empty t.s_queue)
          do
            if (Queue.peek t.s_queue).t_shape = head.t_shape then
              batch := Queue.pop t.s_queue :: !batch
            else continue := false
          done;
          t.s_stats <- { t.s_stats with batches = t.s_stats.batches + 1 };
          let deq = Unix.gettimeofday () in
          List.iter (fun tk -> tk.t_deq <- deq) !batch;
          Metrics.set g_queue_depth (float_of_int (Queue.length t.s_queue));
          `Batch (List.rev !batch)
        end)
  in
  match action with
  | `Exit -> ()
  | `Batch batch ->
      process_batch t sh batch;
      dispatch_loop t sh

(* --- bucket compilation (at create) --- *)

(* Static cross-check of a bucket engine against the base engine through
   the shape-inference results both retained: every declared output axis
   whose extents inference pinned down must scale by exactly the bucket
   factor.  Axes inference left Unknown pass here and are enforced at
   gather time instead (split_axis validates the concrete extents). *)
let outputs_scale_ok (bx : Workload.batching) ~factor ~base ~bucket =
  let rec go axes bs ks =
    match (axes, bs, ks) with
    | [], [], [] -> true
    | ax :: axes, b :: bs, k :: ks ->
        (match (ax, b, k) with
        | Some axis, Some bsh, Some ksh -> (
            match Shape_infer.scale_axis bsh ~axis ~factor with
            | None -> true
            | Some predicted -> (
                Array.length predicted = Array.length ksh
                &&
                match
                  (Shape_infer.extent ksh axis, Shape_infer.extent predicted axis)
                with
                | Some got, Some want -> got = want
                | _ -> true))
        | _ -> true)
        && go axes bs ks
    | _ -> false
  in
  go bx.Workload.output_axes base bucket

(* Engine.run invocations issued per engine at session build, before any
   request is accepted.  They fill the engine's buffer pool and pay its
   first-run costs.  Each tuner needs 3 samples per arm before it pins:
   a group or loop launched several times per run (inside a loop body)
   pins during warm-up, but one launched once per run needs 3 runs per
   arm (6 with both c-jit and per_node), so it is still sampling when
   the first requests arrive. *)
let warmup_runs = 3

let build_buckets t (w : Workload.t) bx ~batch ~seq ~base_engine ~shard =
  let base_out = Engine.output_shapes base_engine in
  let native_args = w.Workload.inputs ~batch ~seq in
  if
    List.length bx.Workload.input_axes <> List.length native_args
    || List.length bx.Workload.output_axes <> List.length base_out
  then []
  else
    List.filter_map
      (fun k ->
        if k <= 1 then None
        else
          try
            let g =
              Graph.clone (Workload.graph w ~batch:(k * batch) ~seq)
            in
            Passes.for_profile t.s_profile g;
            let bucket_args = w.Workload.inputs ~batch:(k * batch) ~seq in
            let inputs = Engine.input_shapes bucket_args in
            let bk = { bk_size = k; bk_graph = g; bk_inputs = inputs } in
            (* warm compile now, so steady-state dispatches never build *)
            let eng = prepare_engine t g ~inputs in
            if
              outputs_scale_ok bx ~factor:k ~base:base_out
                ~bucket:(Engine.output_shapes eng)
            then begin
              (* burn the scheduler's initial arm sampling here so the
                 first serving dispatches run already-pinned arms *)
              (try
                 for _ = 1 to warmup_runs do
                   ignore (Engine.run eng bucket_args)
                 done
               with _ -> ());
              Hashtbl.replace shard k eng;
              Some bk
            end
            else None
          with _ -> None)
      t.s_config.Config.batch_buckets

(* --- public surface --- *)

let create ?(config = Config.default) ?(profile = Compiler_profile.tensorssa)
    ?batch ?seq (w : Workload.t) =
  match
    let batch = Option.value batch ~default:w.Workload.default_batch in
    let seq = Option.value seq ~default:w.Workload.default_seq in
    let reference = Workload.graph w ~batch ~seq in
    let g = Graph.clone reference in
    Passes.for_profile profile g;
    let native_args = w.Workload.inputs ~batch ~seq in
    let base =
      {
        bk_size = 1;
        bk_graph = g;
        bk_inputs = Engine.input_shapes native_args;
      }
    in
    let t =
      {
        s_config = config;
        s_profile = profile;
        s_reference = reference;
        s_graph = g;
        s_native_sig = shape_signature native_args;
        s_batching = w.Workload.batching;
        s_buckets = [ base ];
        s_dispatch_limit = config.Config.max_batch;
        s_bucket_counters = [];
        s_lock = Mutex.create ();
        s_wake = Condition.create ();
        s_queue = Queue.create ();
        s_closing = false;
        s_paused = false;
        s_batch_broken = false;
        s_noted_bucket = 0;
        s_stats = zero_stats;
        s_dispatchers = [];
        s_engine = None;
        s_owned = [];
      }
    in
    (* compile once, now: shard 0 holds every engine it serves from
       before the first submit *)
    let shard0 : shard = Hashtbl.create 4 in
    let base_engine = prepare_engine t g ~inputs:base.bk_inputs in
    Hashtbl.replace shard0 1 base_engine;
    (try
       for _ = 1 to warmup_runs do
         ignore (Engine.run base_engine native_args)
       done
     with _ -> ());
    let t =
      match w.Workload.batching with
      | None -> t
      | Some bx -> (
          match build_buckets t w bx ~batch ~seq ~base_engine ~shard:shard0 with
          | [] -> { t with s_batching = None }
          | bks ->
              let buckets =
                List.sort (fun a b -> compare b.bk_size a.bk_size) (base :: bks)
              in
              let largest = (List.hd buckets).bk_size in
              {
                t with
                s_buckets = buckets;
                s_dispatch_limit = max config.Config.max_batch largest;
                s_bucket_counters =
                  List.map
                    (fun bk ->
                      ( bk.bk_size,
                        Metrics.counter
                          (Printf.sprintf "serve.bucket.b%d" bk.bk_size) ))
                    buckets;
              })
    in
    t.s_dispatchers <-
      [ Domain.spawn (fun () -> dispatch_loop t shard0) ];
    t
  with
  | t -> Ok t
  | exception Functs_frontend.Lower.Lowering_error m ->
      Error (Error.Lowering_error m)
  | exception Eval.Runtime_error m -> Error (Error.Runtime_error m)
  | exception exn -> Error (Error.Engine_failure (Printexc.to_string exn))

let submit t { in_args = args; in_deadline_us = deadline_us } =
  let now = Unix.gettimeofday () in
  let tk =
    {
      t_id = Atomic.fetch_and_add next_ticket_id 1;
      t_args = args;
      t_shape = shape_signature args;
      t_deadline = Option.map (fun d -> now +. (1e-6 *. d)) deadline_us;
      t_enq = now;
      t_deq = 0.;
      t_batched = 0.;
      t_engine = 0.;
      t_rundone = 0.;
      t_lock = Mutex.create ();
      t_cond = Condition.create ();
      t_claimed = false;
      t_result = None;
      t_done = 0.;
    }
  in
  Tracer.span_args "serve.submit"
    ~args:(fun () -> [ ("ticket", string_of_int tk.t_id) ])
    (fun () ->
      locked t (fun () ->
          if t.s_closing then Error Error.Session_closed
          else if Queue.length t.s_queue >= t.s_config.Config.queue_capacity
          then begin
            t.s_stats <- { t.s_stats with overloaded = t.s_stats.overloaded + 1 };
            Metrics.incr m_overloaded;
            Error Error.Overloaded
          end
          else begin
            Queue.add tk t.s_queue;
            let depth = Queue.length t.s_queue in
            t.s_stats <-
              {
                t.s_stats with
                submitted = t.s_stats.submitted + 1;
                max_queue_depth = max t.s_stats.max_queue_depth depth;
              };
            Metrics.incr m_submitted;
            Metrics.set g_queue_depth (float_of_int depth);
            if float_of_int depth > Metrics.gauge_value g_queue_peak then
              Metrics.set g_queue_peak (float_of_int depth);
            (* scale out: a queue holding more than two full dispatch
               rounds means the current shards can't keep up — spawn
               another dispatcher with private engines, up to the
               configured cap.  Spawned under the session lock, so close
               (same lock) can never miss a join. *)
            let live_shards = t.s_stats.shards in
            if
              depth > 2 * t.s_dispatch_limit
              && live_shards < t.s_config.Config.shards
              && not t.s_paused
            then begin
              t.s_stats <- { t.s_stats with shards = live_shards + 1 };
              Journal.record Tuner_pin "serve.shards"
                ~arm:(string_of_int (live_shards + 1))
                ~detail:(Printf.sprintf "queue_depth=%d" depth)
                ~value:(float_of_int depth);
              t.s_dispatchers <-
                Domain.spawn (fun () ->
                    dispatch_loop t (Hashtbl.create 4))
                :: t.s_dispatchers
            end;
            (* arrow tail lives inside this submit span; the head is in
               the dispatcher's batch span on another domain *)
            Tracer.flow_start "serve.req" ~id:tk.t_id;
            Condition.broadcast t.s_wake;
            Ok tk
          end))

let await tk =
  Mutex.lock tk.t_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock tk.t_lock)
    (fun () ->
      while tk.t_result = None do
        Condition.wait tk.t_cond tk.t_lock
      done;
      Option.get tk.t_result)

let poll tk =
  Mutex.lock tk.t_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock tk.t_lock) (fun () -> tk.t_result)

let cancel tk =
  Mutex.lock tk.t_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock tk.t_lock)
    (fun () ->
      if tk.t_claimed || tk.t_result <> None then false
      else begin
        tk.t_claimed <- true;
        tk.t_result <- Some (Error Error.Cancelled);
        tk.t_done <- Unix.gettimeofday ();
        Condition.broadcast tk.t_cond;
        true
      end)

let run t ?deadline_us args =
  match submit t (input ?deadline_us args) with
  | Error _ as e -> e
  | Ok tk -> await tk

let ticket_id tk = tk.t_id

let ticket_stages tk =
  let stage name a b = if a > 0. && b >= a then [ (name, 1e6 *. (b -. a)) ] else [] in
  stage "queue_wait" tk.t_enq tk.t_deq
  @ stage "batch" tk.t_deq tk.t_engine
  @ stage "exec" tk.t_engine tk.t_rundone
  @ stage "total" tk.t_enq tk.t_done

let bucket_sizes t = List.rev_map (fun bk -> bk.bk_size) t.s_buckets

let pause t =
  locked t (fun () ->
      t.s_paused <- true;
      Condition.broadcast t.s_wake)

let resume t =
  locked t (fun () ->
      t.s_paused <- false;
      Condition.broadcast t.s_wake)

let close t =
  let ds =
    locked t (fun () ->
        t.s_closing <- true;
        t.s_paused <- false;
        Condition.broadcast t.s_wake;
        let ds = t.s_dispatchers in
        t.s_dispatchers <- [];
        ds)
  in
  List.iter Domain.join ds;
  (* no run of ours is in flight any more: stop the compiles our engines
     still wait for, so no [cc] outlives the session *)
  List.iter Engine.cancel_jit (locked t (fun () -> t.s_owned))

let await_jit t =
  let owned = locked t (fun () -> t.s_owned) in
  List.iter Engine.await_jit owned;
  List.fold_left
    (fun acc eng ->
      match (acc, Engine.armed_at eng) with
      | Some a, Some b -> Some (Float.max a b)
      | None, x | x, None -> x)
    None owned

let stats t = locked t (fun () -> t.s_stats)

let attribution t =
  match t.s_engine with None -> [] | Some eng -> Engine.attribution eng

let engine_stats t = Option.map Engine.stats t.s_engine
