open Functs_ir
open Functs_core
open Functs_interp
open Functs_tensor
module Tracer = Functs_obs.Tracer

module Jit = Functs_jit.Jit
module Journal = Functs_obs.Journal

type t = {
  e_graph : Graph.t;
  e_prepared : Scheduler.prepared;
  e_lock : Mutex.t;
      (* serializes [run]: cached engines are shared across callers (and
         across session dispatchers on other domains), and the scheduler
         itself is single-run-at-a-time *)
  mutable e_pending : (Jit.pending * float) option;
      (* the JIT unit still compiling, and when this engine began to
         wait for it; read and cleared under [e_lock] *)
  mutable e_armed_at : float option;  (* when native groups last armed *)
}

(* --- defaults ---

   Pure constants (plus the runtime's recommended domain count): the
   engine never reads the environment.  The FUNCTS_* knobs are parsed and
   validated once by the serving layer's [Config.of_env]; callers pass
   the resulting values explicitly.  The cache capacity is the one
   process-wide setting, because the cache itself is process-wide. *)

let default_domains () = max 1 (Domain.recommended_domain_count ())
let default_loop_grain () = 2
let default_kernel_grain () = 8192

let cache_capacity_ref = ref 32
let set_cache_capacity n = cache_capacity_ref := max 1 n

let input_shapes args =
  List.map
    (function
      | Value.Tensor t -> Some (Shape_infer.known t.Tensor.shape)
      | Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _ -> None)
    args

let plan ?(profile = Compiler_profile.tensorssa) g =
  Fusion.plan ~fence_loop_assigns:true profile g

(* --- build (the uncached path) --- *)

(* Arm the groups a finished unit compiled.  A unit that had to wait is
   journaled as [Jit_arm] with the digest prefix and the wait. *)
let arm t ?pending entries =
  if Scheduler.arm t.e_prepared entries > 0 then begin
    let now = Unix.gettimeofday () in
    t.e_armed_at <- Some now;
    match pending with
    | None -> ()
    | Some (p, since) ->
        let wait_ms = 1e3 *. (now -. since) in
        Journal.record Jit_arm "engine" ~arm:"c-jit" ~value:wait_ms
          ~detail:
            (Printf.sprintf "digest=%s wait=%.0fms"
               (String.sub (Jit.pending_digest p) 0 8)
               wait_ms)
  end

let build ~profile ~parallel ~domains ~loop_grain ~kernel_grain ~jit ~jit_dir
    (g : Graph.t) ~inputs =
  Tracer.span_args "engine.build"
    ~args:(fun () ->
      [ ("graph", g.Graph.g_name); ("profile", profile.Compiler_profile.short_name) ])
    (fun () ->
      let plan = plan ~profile g in
      let shapes =
        Tracer.span "engine.shape_infer" (fun () -> Shape_infer.infer g ~inputs)
      in
      let pool = Pool.shared ~lanes:domains in
      let prepared =
        Scheduler.prepare ~parallel ~pool ~loop_grain ~kernel_grain ~graph:g
          ~shapes ~plan
      in
      let t =
        {
          e_graph = g;
          e_prepared = prepared;
          e_lock = Mutex.create ();
          e_pending = None;
          e_armed_at = None;
        }
      in
      (* Native code for every group [Jit_emit] accepts: armed now on an
         artifact hit, else once the background compile finishes. *)
      (if jit <> Jit.Off then
         let kernels =
           Tracer.span "codegen.emit" (fun () -> Codegen.emit g plan ~shapes)
         in
         match
           Jit.start_groups ~loops:(g, plan) ~mode:jit ~dir:jit_dir ~kernels
             ~shapes ()
         with
         | Jit.Armed entries -> arm t entries
         | Jit.Pending p -> t.e_pending <- Some (p, Unix.gettimeofday ()));
      t)

(* Under [e_lock]: arm the pending unit if it has finished ([block]:
   wait for it). *)
let settle_pending t ~block =
  match t.e_pending with
  | None -> ()
  | Some ((p, _) as pending) -> (
      match if block then Some (Jit.await p) else Jit.poll p with
      | None -> ()
      | Some entries ->
          t.e_pending <- None;
          arm t ~pending entries)

(* --- compile cache ---

   Keyed by everything [build] depends on: the compiler profile, the
   parallel/domains/grain configuration, the input shape signature, and
   the printed graph (the printer is a lossless round-trip format, so
   equal prints mean equal programs).  Entries are evicted LRU by a
   monotonic tick; an evicted engine's parked buffers are dropped so dead
   entries stop pinning memory.  Counters are the [engine.cache.*]
   metrics, read via {!Compiler_profile.cache_snapshot}.

   Every access goes through [cache_lock]: session dispatchers prepare
   from their own domains, so the table, the LRU tick and the digest memo
   are all shared mutable state.  The lock is held across a cold [build]
   as well — concurrent identical prepares would otherwise both compile —
   and eviction takes the victim's [e_lock] so a run still executing on
   another domain finishes before its parked buffers are dropped. *)

type centry = { c_engine : t; mutable c_tick : int }

let cache_lock = Mutex.create ()

let cache_locked f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let cache_tbl : (string, centry) Hashtbl.t = Hashtbl.create 64
let cache_tick = ref 0

let shape_sig inputs =
  String.concat ";"
    (List.map
       (function Some s -> Shape_infer.to_string s | None -> "_")
       inputs)

(* Printing and digesting a graph dominates a cache hit, so the digest is
   memoized by physical identity (a bounded scan of recent graphs — [==]
   compares are free).  Sound because prepared graphs are contractually
   immutable ({!Scheduler.prepare}); a graph mutated after a prepare is
   already outside the engine's contract. *)
let digest_memo : (Graph.t * string) list ref = ref []

let graph_digest (g : Graph.t) =
  match List.find_opt (fun (g', _) -> g' == g) !digest_memo with
  | Some (_, d) -> d
  | None ->
      let d = Digest.to_hex (Digest.string (Printer.to_string g)) in
      let keep = !digest_memo in
      let keep =
        if List.length keep >= 64 then List.filteri (fun i _ -> i < 48) keep
        else keep
      in
      digest_memo := (g, d) :: keep;
      d

let cache_key ~profile ~parallel ~domains ~loop_grain ~kernel_grain ~jit
    ~jit_dir g ~inputs =
  String.concat "|"
    [
      profile.Compiler_profile.short_name;
      string_of_bool parallel;
      string_of_int domains;
      string_of_int loop_grain;
      string_of_int kernel_grain;
      Jit.mode_to_string jit;
      jit_dir;
      shape_sig inputs;
      graph_digest g;
    ]

(* Drop an entry's parked buffers without racing a run in flight on
   another domain.  Lock order is cache_lock → e_lock; [run] takes only
   e_lock, so this cannot deadlock. *)
let quiesce_and_clear (e : t) =
  Mutex.lock e.e_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock e.e_lock)
    (fun () -> Scheduler.clear_buffers e.e_prepared)

let evict_one () =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, t) when t <= e.c_tick -> ()
      | _ -> victim := Some (key, e.c_tick))
    cache_tbl;
  match !victim with
  | None -> ()
  | Some (key, _) ->
      (match Hashtbl.find_opt cache_tbl key with
      | Some e -> quiesce_and_clear e.c_engine
      | None -> ());
      Hashtbl.remove cache_tbl key;
      Compiler_profile.cache_eviction ();
      Functs_obs.Journal.record Cache_evict "engine.cache"
        ~detail:(String.sub key 0 (min 96 (String.length key)))

let clear_cache () =
  cache_locked (fun () ->
      Hashtbl.iter (fun _ e -> quiesce_and_clear e.c_engine) cache_tbl;
      Hashtbl.reset cache_tbl)

let cache_size () = cache_locked (fun () -> Hashtbl.length cache_tbl)

let prepare ?(profile = Compiler_profile.tensorssa) ?(parallel = true) ?domains
    ?loop_grain ?kernel_grain ?(cache = true) ?(jit = Jit.Off) ?(jit_dir = "")
    (g : Graph.t) ~inputs =
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let loop_grain =
    match loop_grain with Some g -> max 1 g | None -> default_loop_grain ()
  in
  let kernel_grain =
    match kernel_grain with
    | Some g -> max 1 g
    | None -> default_kernel_grain ()
  in
  if cache then
    cache_locked (fun () ->
        let key =
          cache_key ~profile ~parallel ~domains ~loop_grain ~kernel_grain ~jit
            ~jit_dir g ~inputs
        in
        match Hashtbl.find_opt cache_tbl key with
        | Some e ->
            incr cache_tick;
            e.c_tick <- !cache_tick;
            Compiler_profile.cache_hit ();
            Tracer.instant "engine.cache.hit";
            e.c_engine
        | None ->
            Compiler_profile.cache_miss ();
            Tracer.instant "engine.cache.miss";
            let t =
              build ~profile ~parallel ~domains ~loop_grain ~kernel_grain ~jit
                ~jit_dir g ~inputs
            in
            while Hashtbl.length cache_tbl >= !cache_capacity_ref do
              evict_one ()
            done;
            incr cache_tick;
            Hashtbl.replace cache_tbl key { c_engine = t; c_tick = !cache_tick };
            t)
  else
    build ~profile ~parallel ~domains ~loop_grain ~kernel_grain ~jit ~jit_dir g
      ~inputs

let locked t f =
  Mutex.lock t.e_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.e_lock) f

let check_args = Scheduler.check_args

let run t args =
  locked t (fun () ->
      settle_pending t ~block:false;
      Scheduler.run t.e_prepared args)

let await_jit t = locked t (fun () -> settle_pending t ~block:true)
let jit_pending t = Option.is_some t.e_pending
let armed_at t = t.e_armed_at

let cancel_jit t =
  match t.e_pending with Some (p, _) -> Jit.cancel p | None -> ()

let force t site arm = locked t (fun () -> Scheduler.force t.e_prepared site arm)

let output_shapes t = Scheduler.output_shapes t.e_prepared
let stats t = Scheduler.stats t.e_prepared
let attribution t = Scheduler.attribution t.e_prepared
let graph t = t.e_graph
