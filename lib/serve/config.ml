module Engine = Functs_exec.Engine
module Jit = Functs_jit.Jit
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics
module Journal = Functs_obs.Journal

type trace_sink = Trace_off | Trace_on | Trace_file of string
type metrics_sink = Metrics_off | Metrics_stderr | Metrics_file of string
type policy = [ `Interp_fallback | `Shed ]

type t = {
  domains : int;
  loop_grain : int;
  kernel_grain : int;
  chunk_bytes : int;  (* per-task cache budget; 0 probes sysfs *)
  cache : bool;
  cache_size : int;
  jit : Jit.mode;
  jit_dir : string;
  jit_cc : string;  (* JIT C compiler command; "" keeps the default *)
  trace : trace_sink;
  trace_buf : int;
  metrics : metrics_sink;
  queue_capacity : int;
  max_batch : int;
  batch_buckets : int list;  (* ascending, unique, first element 1 *)
  shards : int;
      (* max dispatchers per session; shard 0 is a thread of the creating
         domain when one core is usable (no cross-domain GC handshake),
         extra shards are domains, to use more cores *)
  policy : policy;
  journal : bool;  (* decision journal (on by default; rare records) *)
  journal_buf : int;  (* journal ring capacity *)
}

let default =
  {
    domains = Engine.default_domains ();
    loop_grain = Engine.default_loop_grain ();
    kernel_grain = Engine.default_kernel_grain ();
    chunk_bytes = 0;
    cache = true;
    cache_size = 32;
    jit = Jit.Off;
    jit_dir = "";
    jit_cc = "";
    trace = Trace_off;
    trace_buf = 65536;
    metrics = Metrics_off;
    queue_capacity = 256;
    max_batch = 8;
    batch_buckets = [ 1; 4; 16 ];
    shards = 1;
    policy = `Interp_fallback;
    journal = true;
    journal_buf = 4096;
  }

(* --- the single sanctioned FUNCTS_* parser ---

   Validation is strict: a set-but-malformed variable is an error the
   caller must see, not a silent fall-through to the default.  The only
   forgiving case is the empty string, which stands for "unset" because
   Unix.putenv cannot remove a variable. *)

let invalid key value reason = Error (Error.Invalid_config { key; value; reason })

let fold_env getenv init steps =
  List.fold_left
    (fun acc (key, step) ->
      match acc with
      | Error _ as e -> e
      | Ok cfg -> (
          match getenv key with
          | None | Some "" -> Ok cfg
          | Some raw -> step cfg key (String.trim raw)))
    (Ok init) steps

let pos_int ~min_value set cfg key v =
  match int_of_string_opt v with
  | Some n when n >= min_value -> Ok (set cfg n)
  | Some _ ->
      invalid key v (Printf.sprintf "must be an integer >= %d" min_value)
  | None -> invalid key v "not an integer"

let bool_flag set cfg key v =
  match String.lowercase_ascii v with
  | "1" | "on" | "true" | "yes" -> Ok (set cfg true)
  | "0" | "off" | "false" | "no" -> Ok (set cfg false)
  | _ -> invalid key v "expected on/off (or 1/0, true/false, yes/no)"

let trace_sink cfg _key v =
  match String.lowercase_ascii v with
  | "0" | "off" | "false" | "no" -> Ok { cfg with trace = Trace_off }
  | "1" | "on" | "true" -> Ok { cfg with trace = Trace_on }
  | _ -> Ok { cfg with trace = Trace_file v }

let metrics_sink cfg _key v =
  match String.lowercase_ascii v with
  | "0" | "off" | "false" | "no" -> Ok { cfg with metrics = Metrics_off }
  | "1" | "on" | "stderr" -> Ok { cfg with metrics = Metrics_stderr }
  | _ -> Ok { cfg with metrics = Metrics_file v }

let jit_mode cfg key v =
  match Jit.mode_of_string (String.lowercase_ascii v) with
  | Some m -> Ok { cfg with jit = m }
  | None -> invalid key v "expected off, auto or on"

(* The artifact directory honours the usual cache conventions when the
   variable is unset: $XDG_CACHE_HOME/functs/jit, else
   $HOME/.cache/functs/jit, else "" (which the engine resolves to a
   temp-dir fallback). *)
let resolve_jit_dir getenv cfg =
  if cfg.jit_dir <> "" then cfg
  else
    let dir =
      match getenv "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Filename.concat (Filename.concat d "functs") "jit"
      | _ -> (
          match getenv "HOME" with
          | Some h when h <> "" ->
              List.fold_left Filename.concat h [ ".cache"; "functs"; "jit" ]
          | _ -> "")
    in
    { cfg with jit_dir = dir }

(* Comma-separated bucket list, e.g. "1,4,16".  Buckets must be strictly
   ascending (which implies unique) and start at 1 so every request mix
   decomposes greedily with a bucket-1 remainder. *)
let bucket_list cfg key v =
  let parts = String.split_on_char ',' v |> List.map String.trim in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match int_of_string_opt p with
        | Some n when n >= 1 -> parse (n :: acc) rest
        | Some _ | None -> invalid key v "buckets must be positive integers")
  in
  match parse [] parts with
  | Error _ as e -> e
  | Ok [] -> invalid key v "expected a comma-separated bucket list"
  | Ok (first :: _ as buckets) ->
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      if first <> 1 then invalid key v "the first bucket must be 1"
      else if not (ascending buckets) then
        invalid key v "buckets must be strictly ascending"
      else Ok { cfg with batch_buckets = buckets }

let policy_of cfg key v =
  match String.lowercase_ascii v with
  | "interp" | "interp_fallback" | "fallback" ->
      Ok { cfg with policy = `Interp_fallback }
  | "shed" -> Ok { cfg with policy = `Shed }
  | _ -> invalid key v "expected interp_fallback or shed"

let of_env ?(base = default) ?(getenv = Sys.getenv_opt) () =
  Result.map (resolve_jit_dir getenv)
  @@ fold_env getenv base
       [
      ("FUNCTS_DOMAINS", pos_int ~min_value:1 (fun c n -> { c with domains = n }));
      ("FUNCTS_GRAIN", pos_int ~min_value:1 (fun c n -> { c with loop_grain = n }));
      ( "FUNCTS_KERNEL_GRAIN",
        pos_int ~min_value:1 (fun c n -> { c with kernel_grain = n }) );
      ( "FUNCTS_CHUNK_BYTES",
        pos_int ~min_value:0 (fun c n -> { c with chunk_bytes = n }) );
      ("FUNCTS_CACHE", bool_flag (fun c b -> { c with cache = b }));
      ( "FUNCTS_CACHE_SIZE",
        pos_int ~min_value:1 (fun c n -> { c with cache_size = n }) );
      ("FUNCTS_JIT", jit_mode);
      ("FUNCTS_JIT_DIR", fun cfg _key v -> Ok { cfg with jit_dir = v });
      ("FUNCTS_JIT_CC", fun cfg _key v -> Ok { cfg with jit_cc = v });
      ("FUNCTS_TRACE", trace_sink);
      ( "FUNCTS_TRACE_BUF",
        pos_int ~min_value:16 (fun c n -> { c with trace_buf = n }) );
      ("FUNCTS_METRICS", metrics_sink);
      ( "FUNCTS_QUEUE",
        pos_int ~min_value:1 (fun c n -> { c with queue_capacity = n }) );
      ( "FUNCTS_MAX_BATCH",
        pos_int ~min_value:1 (fun c n -> { c with max_batch = n }) );
      ("FUNCTS_BATCH_BUCKETS", bucket_list);
      ("FUNCTS_SHARDS", pos_int ~min_value:1 (fun c n -> { c with shards = n }));
      ("FUNCTS_POLICY", policy_of);
      ("FUNCTS_JOURNAL", bool_flag (fun c b -> { c with journal = b }));
      ( "FUNCTS_JOURNAL_BUF",
        pos_int ~min_value:16 (fun c n -> { c with journal_buf = n }) );
    ]

(* --- apply: push process-wide pieces into their owners ---

   The exit hooks are registered exactly once and read [applied], so
   re-applying a different config retargets them instead of stacking
   duplicate dumps. *)

let applied = ref default
let hooks_installed = ref false

let dump_metrics () =
  match !applied.metrics with
  | Metrics_off -> ()
  | Metrics_stderr -> prerr_string (Metrics.to_text (Metrics.snapshot ()))
  | Metrics_file path -> (
      try
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            let s = Metrics.snapshot () in
            output_string oc
              (if Filename.check_suffix path ".json" then
                 Metrics.to_json s ^ "\n"
               else Metrics.to_text s))
      with Sys_error _ -> ())

let dump_trace () =
  match !applied.trace with
  | Trace_off | Trace_on -> ()
  | Trace_file path -> ( try Tracer.write_chrome path with Sys_error _ -> ())

let apply cfg =
  applied := cfg;
  Engine.set_cache_capacity cfg.cache_size;
  if cfg.jit_cc <> "" then Jit.set_c_compiler cfg.jit_cc;
  Functs_exec.Pool.set_chunk_bytes cfg.chunk_bytes;
  if Tracer.capacity () <> cfg.trace_buf then Tracer.set_capacity cfg.trace_buf;
  (match cfg.trace with
  | Trace_off -> ()
  | Trace_on | Trace_file _ -> Tracer.enable ());
  if Journal.capacity () <> cfg.journal_buf then
    Journal.set_capacity cfg.journal_buf;
  if cfg.journal then Journal.enable () else Journal.disable ();
  if not !hooks_installed then begin
    hooks_installed := true;
    at_exit dump_trace;
    at_exit dump_metrics
  end

let to_string cfg =
  let sink = function
    | Trace_off -> "off"
    | Trace_on -> "on"
    | Trace_file p -> p
  in
  let msink = function
    | Metrics_off -> "off"
    | Metrics_stderr -> "stderr"
    | Metrics_file p -> p
  in
  String.concat "\n"
    [
      Printf.sprintf "domains        = %d" cfg.domains;
      Printf.sprintf "loop_grain     = %d" cfg.loop_grain;
      Printf.sprintf "kernel_grain   = %d" cfg.kernel_grain;
      Printf.sprintf "chunk_bytes    = %s"
        (if cfg.chunk_bytes = 0 then "(auto)"
         else string_of_int cfg.chunk_bytes);
      Printf.sprintf "cache          = %b" cfg.cache;
      Printf.sprintf "cache_size     = %d" cfg.cache_size;
      Printf.sprintf "jit            = %s" (Jit.mode_to_string cfg.jit);
      Printf.sprintf "jit_dir        = %s"
        (if cfg.jit_dir = "" then "(temp)" else cfg.jit_dir);
      Printf.sprintf "jit_cc         = %s"
        (if cfg.jit_cc = "" then "(default)" else cfg.jit_cc);
      Printf.sprintf "trace          = %s" (sink cfg.trace);
      Printf.sprintf "trace_buf      = %d" cfg.trace_buf;
      Printf.sprintf "metrics        = %s" (msink cfg.metrics);
      Printf.sprintf "queue_capacity = %d" cfg.queue_capacity;
      Printf.sprintf "max_batch      = %d" cfg.max_batch;
      Printf.sprintf "batch_buckets  = %s"
        (String.concat "," (List.map string_of_int cfg.batch_buckets));
      Printf.sprintf "shards         = %d" cfg.shards;
      Printf.sprintf "policy         = %s"
        (match cfg.policy with
        | `Interp_fallback -> "interp_fallback"
        | `Shed -> "shed");
      Printf.sprintf "journal        = %b" cfg.journal;
      Printf.sprintf "journal_buf    = %d" cfg.journal_buf;
    ]
