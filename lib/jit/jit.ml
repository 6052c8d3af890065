open Functs_ir
open Functs_tensor
open Functs_core
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics

(* Driver for the native JIT backend: lowers every kernel of an engine
   preparation that the emitter accepts to C ({!Jit_emit}), builds one C
   unit from them, obtains its launch table through {!Jit_cache} (memory →
   disk → [cc -O3 -shared]), and exposes a per-group [run] that
   validates tensor bindings before handing raw buffers to the native
   code.  The unit is shape-generic; each entry writes its engine's outer
   extents into its [ints] once, so engines at other batch sizes share
   the compiled unit.

   A unit that must be compiled is [Pending]: [cc] runs in the
   background ({!Jit_cache.start}) and the caller polls for the entries.

   Nothing here raises across the engine API: [start_groups] turns
   every failure (no compiler, compile error or timeout, corrupt
   artifact) into an empty/partial result plus a [jit.c.fallback] tick
   per emitted group, leaves a kernel the emitter rejects out with a
   [jit.c.reject] trace instant (that group never was a C-lane group),
   and [run] raises only {!Fallback}, which the scheduler converts into
   a per-node launch. *)

type mode = Off | Auto

(* "on" is kept as an alias: it never armed anything [auto] did not. *)
let mode_of_string = function
  | "off" -> Some Off
  | "on" | "auto" -> Some Auto
  | _ -> None

let mode_to_string = function Off -> "off" | Auto -> "auto"
let fallback_c = Metrics.counter "jit.c.fallback"
let groups_c = Metrics.counter "jit.c.groups"
let runs_c = Metrics.counter "jit.c.runs"

exception Fallback of string

let fb fmt = Format.kasprintf (fun msg -> raise (Fallback msg)) fmt

type entry = {
  en_em : Jit_emit.emitted;
  en_fn : Jit_cache.fn;
  (* launch scratch, owned by the preparing engine (engines dispatch
     kernels from one domain at a time, so one scratch per entry) *)
  en_bufs : float array array;
  en_ints : int array;
  en_local : int array;
      (* per site: index of the statement whose output it reads, or -1
         for tensors bound from the caller's environment *)
  en_nonempty : bool array;
      (* per site: the owning statement writes at least one element (the
         bounds precheck is skipped for empty outputs) *)
  en_seen : Tensor.t option array;
      (* per site: the binding that last passed the bounds precheck —
         loop bodies relaunch against the same pooled buffers, so a
         physical-equality hit skips the range arithmetic *)
  en_nsites : int array;
      (* per statement: read sites it owns (drives the launch's
         bytes-per-iteration estimate) *)
  en_scratch : Tensor.t option array;
      (* per statement: a cached output tensor for unstored statements.
         An [e_store = false] output never escapes the group (the
         scheduler releases it right after binding results), so instead
         of a pool round trip per launch it writes into this per-entry
         buffer, allocated on first use.  [Buffer_plan.release] is
         owner-checked, so handing these back is a no-op. *)
}

let set_c_compiler = Toolchain.set_c_compiler
let set_c_compile_bound = Jit_cache.set_compile_bound
let c_toolchain_available = Toolchain.c_available
let clear_loaded = Jit_cache.clear_loaded
let has_c (_ : entry) = true

let default_dir () = Filename.concat (Filename.get_temp_dir_name ()) "functs-jit"
let resolve_dir = function "" -> default_dir () | d -> d

let isa = Toolchain.isa

(* One function per kernel, compiled for [isa] alone: on an AVX2 host
   each kernel carries [target("avx2")], elsewhere no attribute (the
   compiler's baseline).  The ISA is part of the digest, so hosts with
   different ISAs sharing an artifact directory never load each other's
   [.so]. *)
let render_source ~isa emitted =
  let target =
    match isa with
    | "default" -> ""
    | isa -> Printf.sprintf "FUNCTS_ISA(target(\"%s\"))\n" isa
  in
  let body = Buffer.create 4096 in
  List.iteri
    (fun i (em : Jit_emit.emitted) ->
      Buffer.add_string body
        (Printf.sprintf
           "/* %s : group %d */\n\
            %slong functs_cjit_k%d(double **bufs, const long *ints, long \
            stmt, long lo, long hi)\n\
            {\n\
            %s}\n\n"
           em.e_name em.e_group target i em.e_fn))
    emitted;
  let body = Buffer.contents body in
  let digest =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "cv%d\n%s\n%s" Jit_cache.version isa body))
  in
  let table =
    String.concat ", "
      (List.mapi (fun i _ -> Printf.sprintf "functs_cjit_k%d" i) emitted)
  in
  let source =
    Printf.sprintf
      "/* generated by functs cjit · codegen v%d · digest %s */\n\
       #include <math.h>\n\n\
       #if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)\n\
       #define FUNCTS_ISA(t) __attribute__((t))\n\
       #else\n\
       #define FUNCTS_ISA(t)\n\
       #endif\n\n\
       /* Vector transcendentals: these declarations let GCC compile\n\
       \   exp/log/tanh/pow calls in vectorised loops down to glibc's\n\
       \   libmvec kernels (_ZGVdN4v_exp &c., <= 4 ulp of scalar libm —\n\
       \   far inside the engine's epsilon gate).  The driver links\n\
       \   -lmvec when available and retries with FUNCTS_NO_VECLIBM\n\
       \   (bitwise scalar libm) when not.  sqrt and fabs stay bare:\n\
       \   they vectorise to exact IEEE instructions anyway. */\n\
       #if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
       && !defined(FUNCTS_NO_VECLIBM)\n\
       __attribute__((__simd__(\"notinbranch\"))) double exp(double);\n\
       __attribute__((__simd__(\"notinbranch\"))) double log(double);\n\
       __attribute__((__simd__(\"notinbranch\"))) double tanh(double);\n\
       __attribute__((__simd__(\"notinbranch\"))) double pow(double, \
       double);\n\
       #endif\n\n\
       /* OCaml's Float.max / Float.min / Float.equal, NaN payloads and\n\
       \   signed zeros included: fmax/fmin/== follow other rules. */\n\
       static inline double functs_max(double x, double y)\n\
       { return (y > x || (!signbit(y) && signbit(x))) ? (x != x ? x : y)\n\
       \                                                : (y != y ? y : x); }\n\
       static inline double functs_min(double x, double y)\n\
       { return (y > x || (!signbit(y) && signbit(x))) ? (y != y ? y : x)\n\
       \                                                : (x != x ? x : y); }\n\
       static inline int functs_equal(double x, double y)\n\
       { return x == y || (x != x && y != y); }\n\n\
       %s\
       const char functs_cjit_header[] = %S;\n\
       const long functs_cjit_nfns = %d;\n\
       typedef long (*functs_cjit_fn)(double **, const long *, long, long, \
       long);\n\
       functs_cjit_fn const functs_cjit_table[] = { %s };\n"
      Jit_cache.version digest body (Jit_cache.header digest)
      (List.length emitted) table
  in
  (digest, source)

let entry_of (em : Jit_emit.emitted) fn =
  (* the unit's outer extents are this engine's, fixed for its lifetime *)
  let ints = Array.make (max 1 (em.e_nints + Array.length em.e_sites)) 0 in
  Array.iter
    (fun (st : Jit_emit.estmt) ->
      for d = 0 to Array.length st.e_shape - 2 do
        ints.(st.e_ext_pos + d) <- st.e_shape.(d)
      done)
    em.e_stmts;
  let local (s : Jit_emit.esite) =
    let found = ref (-1) in
    Array.iteri
      (fun j (st : Jit_emit.estmt) ->
        if st.e_out.Graph.v_id = s.e_value.Graph.v_id then found := j)
      em.e_stmts;
    !found
  in
  let nsites = Array.length em.e_sites in
  {
    en_em = em;
    en_fn = fn;
    en_bufs = Array.make (Jit_emit.nbufs em) [||];
    en_ints = ints;
    en_local = Array.map local em.e_sites;
    en_nonempty =
      Array.map
        (fun (s : Jit_emit.esite) ->
          Shape.numel em.e_stmts.(s.e_stmt).e_shape > 0)
        em.e_sites;
    en_seen = Array.make nsites None;
    en_nsites =
      (let ns = Array.make (Array.length em.e_stmts) 0 in
       Array.iter
         (fun (s : Jit_emit.esite) -> ns.(s.e_stmt) <- ns.(s.e_stmt) + 1)
         em.e_sites;
       ns);
    en_scratch = Array.make (Array.length em.e_stmts) None;
  }

(* A unit whose compile is still running.  [pd_job] is replaced when a
   cancel (another owner closing) stops the compile under a pending
   engine: its next poll starts the unit again. *)
type pending = {
  pd_emitted : Jit_emit.emitted list;
  pd_dir : string;
  pd_digest : string;
  pd_source : string;
  mutable pd_job : Jit_cache.job;
}

type started = Armed of (int * entry) list | Pending of pending

let restart pd =
  pd.pd_job <-
    Jit_cache.start ~dir:pd.pd_dir ~digest:pd.pd_digest ~source:pd.pd_source
      ~nfns:(List.length pd.pd_emitted)

(* The entries of a finished unit; every emitted group ticks
   [jit.c.groups] or, when the unit failed, [jit.c.fallback]. *)
let settled pd = function
  | Ok tbl ->
      Metrics.incr ~by:(List.length pd.pd_emitted) groups_c;
      List.mapi
        (fun idx (em : Jit_emit.emitted) ->
          (em.e_group, entry_of em { Jit_cache.tbl; idx }))
        pd.pd_emitted
  | Error _ ->
      Metrics.incr ~by:(List.length pd.pd_emitted) fallback_c;
      []

let poll pd =
  match Jit_cache.poll pd.pd_job with
  | `Pending -> None
  | `Cancelled ->
      restart pd;
      None
  | `Ready tbl -> Some (settled pd (Ok tbl))
  | `Failed e -> Some (settled pd (Error e))

let await pd =
  let rec go pause =
    match poll pd with
    | Some entries -> entries
    | None ->
        Unix.sleepf pause;
        go (Float.min 0.01 (pause *. 2.))
  in
  go 0.001

let cancel pd = Jit_cache.cancel pd.pd_job
let pending_digest pd = pd.pd_digest

let start_groups ~mode ~dir ~kernels ~shapes =
  match (mode, kernels) with
  | Off, _ | _, [] -> Armed []
  | Auto, _ -> (
      let emitted =
        Tracer.span "jit.emit" @@ fun () ->
        List.filter_map
          (fun (k : Codegen.kernel) ->
            match Jit_emit.emit k ~shapes with
            | Ok em -> Some em
            | Error reason ->
                Tracer.instant "jit.c.reject"
                  ~args:[ ("kernel", k.k_name); ("reason", reason) ];
                None)
          kernels
      in
      match emitted with
      | [] -> Armed []
      | _ -> (
          let digest, source = render_source ~isa:(isa ()) emitted in
          let dir = resolve_dir dir in
          let pd =
            {
              pd_emitted = emitted;
              pd_dir = dir;
              pd_digest = digest;
              pd_source = source;
              pd_job =
                Jit_cache.start ~dir ~digest ~source
                  ~nfns:(List.length emitted);
            }
          in
          match poll pd with Some entries -> Armed entries | None -> Pending pd))

let prepare_groups ~mode ~dir ~kernels ~shapes =
  match start_groups ~mode ~dir ~kernels ~shapes with
  | Armed entries -> entries
  | Pending pd -> await pd

(* Launch-time validation: the generated code only reads statically
   bounded sites without checks, so each of them must pass the
   stride/extent check against the tensor actually bound this run.
   Anything that does not line up raises {!Fallback} before the native
   code runs.

   [par] (when provided) must cover the whole range [0, n) with disjoint
   [body lo hi] calls, sequentially or not — {!Pool.parallel_for}'s
   contract.  Each statement's outermost loop is then split across
   stolen ranges; statements still run in order (the launch joins before
   the next statement), so cross-statement reads stay ordered, and every
   output element is written by exactly one range, so results are
   bitwise-identical to a sequential launch. *)
let run ?par ~grain (e : entry) ~alloc ~lookup ~scalar =
  let em = e.en_em in
  let nstmts = Array.length em.e_stmts in
  let bufs = e.en_bufs and ints = e.en_ints in
  Array.iteri
    (fun k name ->
      match scalar name with
      | Some v -> ints.(em.e_scalar_pos + k) <- v
      | None -> fb "unbound scalar %s" name)
    em.e_free;
  let outs =
    Array.mapi
      (fun j (st : Jit_emit.estmt) ->
        let t : Tensor.t =
          if st.e_store then alloc st.e_shape
          else
            match e.en_scratch.(j) with
            | Some t -> t
            | None ->
                (* every element is written before any site reads it, so
                   the first launch may start from uninitialised memory *)
                let t = Tensor.uninit st.e_shape in
                e.en_scratch.(j) <- Some t;
                t
        in
        bufs.(j) <- Storage.data t.Tensor.storage;
        ints.(st.e_out_pos) <- t.Tensor.offset;
        t)
      em.e_stmts
  in
  Array.iteri
    (fun i (s : Jit_emit.esite) ->
      let t =
        match e.en_local.(i) with
        | j when j >= 0 -> outs.(j)
        | _ -> (
            match lookup s.e_value with
            | Some t -> t
            | None -> fb "unbound tensor %s" (Codegen.value_ref s.e_value))
      in
      if Tensor.ndim t <> s.e_rank then
        fb "rank mismatch on %s" (Codegen.value_ref s.e_value);
      let data = Storage.data t.Tensor.storage in
      (match s.e_bounds with
      | None -> ()  (* guarded in the generated code *)
      | Some bounds ->
          let same_as_last =
            match e.en_seen.(i) with
            | Some p ->
                Storage.data p.Tensor.storage == data
                && p.Tensor.offset = t.Tensor.offset
                && p.Tensor.strides = t.Tensor.strides
            | None -> false
          in
          if e.en_nonempty.(i) && not same_as_last then begin
            let lo = ref t.Tensor.offset and hi = ref t.Tensor.offset in
            Array.iteri
              (fun k (l, h) ->
                let st = t.Tensor.strides.(k) in
                if st >= 0 then begin
                  lo := !lo + (st * l);
                  hi := !hi + (st * h)
                end
                else begin
                  lo := !lo + (st * h);
                  hi := !hi + (st * l)
                end)
              bounds;
            if !lo < 0 || !hi >= Array.length data then
              fb "index range out of bounds on %s"
                (Codegen.value_ref s.e_value);
            e.en_seen.(i) <- Some t
          end);
      bufs.(nstmts + s.e_slot) <- data;
      ints.(em.e_nints + s.e_slot) <- Array.length data;
      ints.(s.e_ints_pos) <- t.Tensor.offset;
      for k = 0 to s.e_rank - 1 do
        ints.(s.e_ints_pos + 1 + k) <- t.Tensor.strides.(k)
      done)
    em.e_sites;
  (* a tripped guard (an out-of-range dynamic index) discards the launch *)
  let trip () =
    Array.fill bufs 0 (Array.length bufs) [||];
    fb "dynamic index out of bounds in group %d" em.e_group
  in
  (* when no statement is worth a parallel split, the whole group runs
     in one native call ([stmt = -1] falls through every case at full
     extent) — per-call stub overhead is paid once, not once per
     statement *)
  let whole =
    match par with
    | None -> true
    | Some _ ->
        Array.for_all
          (fun (st : Jit_emit.estmt) ->
            let numel = Shape.numel st.e_shape in
            let outer =
              if Array.length st.e_shape = 0 then 1 else st.e_shape.(0)
            in
            outer < 2 || numel < 2 * grain)
          em.e_stmts
  in
  if whole then begin
    if Jit_cache.call e.en_fn bufs ints (-1) 0 0 <> 0 then trip ()
  end
  else begin
    let tripped = ref false in
    Array.iteri
      (fun j (st : Jit_emit.estmt) ->
        let numel = Shape.numel st.e_shape in
        let outer = if Array.length st.e_shape = 0 then 1 else st.e_shape.(0) in
        let inner = if outer = 0 then 0 else numel / outer in
        let launch lo hi =
          if Jit_cache.call e.en_fn bufs ints j lo hi <> 0 then tripped := true
        in
        (match par with
        | Some par when outer >= 2 && numel >= 2 * grain ->
            par
              ~grain:(max 1 (grain / max 1 inner))
              ~bytes_per_iter:(8 * (1 + e.en_nsites.(j)) * inner)
              ~n:outer launch
        | _ -> launch 0 outer);
        if !tripped then trip ())
      em.e_stmts
  end;
  Array.fill bufs 0 (Array.length bufs) [||];
  Metrics.incr runs_c;
  Array.to_list
    (Array.mapi
       (fun j (st : Jit_emit.estmt) -> (st.e_out, outs.(j), st.e_store))
       em.e_stmts)
