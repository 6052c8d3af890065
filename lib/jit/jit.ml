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
   code.  The same unit holds a loop kernel for each sequential loop
   whose body qualifies ({!Jit_emit.emit_loop}), launched by
   [run_loop] once per run of the loop.  The unit is shape-generic;
   each entry writes its engine's outer extents into its [ints] once,
   so engines at other batch sizes share the compiled unit.

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
      (* per site: index of the memory statement whose output it reads,
         or -1 for tensors bound from the caller's environment *)
  en_seen : Tensor.t option array;
      (* per site: the binding that last passed the bounds precheck —
         loop bodies relaunch against the same pooled buffers, so a
         physical-equality hit skips the range arithmetic *)
  en_nsites : int array;
      (* per nest: read sites it owns (drives the launch's
         bytes-per-iteration estimate) *)
  en_scratch : Tensor.t option array;
      (* per memory statement: a cached output tensor for unstored ones
         (temporaries another nest reads).  An [e_store = false] output
         never escapes the group (the scheduler releases it right after
         binding results), so instead of a pool round trip per launch it
         writes into this per-entry buffer, allocated on first use.
         [Buffer_plan.release] is owner-checked, so handing these back is
         a no-op. *)
}

let set_c_compiler = Toolchain.set_c_compiler
let set_c_compile_bound = Jit_cache.set_compile_bound
let c_toolchain_available = Toolchain.c_available
let clear_loaded = Jit_cache.clear_loaded
let has_c (_ : entry) = true

let default_dir () = Filename.concat (Filename.get_temp_dir_name ()) "functs-jit"
let resolve_dir = function "" -> default_dir () | d -> d

let isa = Toolchain.isa

(* The GEMM microkernel ([gemm_kernel.h]) as [functs_gemm] and its
   packed-panel entries, instantiated for [isa] the way [gemm_stubs.c]
   instantiates its clones: the pragma defines the ISA's macros, which
   pick the tile shape. *)
let gemm_unit ~isa =
  let push, pop =
    match isa with
    | "default" -> ("", "")
    | isa ->
        ( Printf.sprintf
            "#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)\n\
             #pragma GCC push_options\n\
             #pragma GCC target(\"%s\")\n\
             #endif\n"
            isa,
          "#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)\n\
           #pragma GCC pop_options\n\
           #endif\n" )
  in
  Printf.sprintf "%s#define GEMM_NAME functs_gemm\n%s\n%s\n" push
    Gemm_source.text pop

(* One [static] function per kernel behind the exported
   [functs_cjit_table], so a loop kernel calls its members directly
   (inlinable, no PLT), compiled for [isa] alone: each kernel carries
   [target("avx512f")] or [target("avx2")] on hosts with those ISAs,
   elsewhere no attribute (the compiler's baseline).  The ISA is part of
   the digest, so hosts with different ISAs sharing an artifact
   directory never load each other's [.so]. *)
let render_source ~isa ?(loops = []) emitted =
  let target =
    match isa with
    | "default" -> ""
    | isa -> Printf.sprintf "FUNCTS_ISA(target(\"%s\"))\n" isa
  in
  let body = Buffer.create 4096 in
  let fn i comment text =
    Buffer.add_string body
      (Printf.sprintf
         "/* %s */\n\
          %sstatic long functs_cjit_k%d(double **bufs, const long *ints, long \
          nest, long lo, long hi)\n\
          {\n\
          %s}\n\n"
         comment target i text)
  in
  List.iteri
    (fun i (em : Jit_emit.emitted) ->
      fn i (Printf.sprintf "%s : group %d" em.e_name em.e_group) em.e_fn)
    emitted;
  let ngroups = List.length emitted in
  List.iteri
    (fun i (l : Jit_emit.eloop) -> fn (ngroups + i) "loop kernel" l.l_fn)
    loops;
  let gemm =
    loops <> []
    || List.exists (fun (em : Jit_emit.emitted) -> em.e_gemm <> None) emitted
  in
  let body =
    (if gemm then gemm_unit ~isa else "") ^ Buffer.contents body
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "cv%d\n%s\n%s" Jit_cache.version isa body))
  in
  let table =
    String.concat ", "
      (List.init (ngroups + List.length loops) (Printf.sprintf "functs_cjit_k%d"))
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
       \   inside the oracle's bound for native runs).  The driver links\n\
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
       { return x == y || (x != x && y != y); }\n\
       /* Ops.where: every operand evaluated, then a select. */\n\
       static inline double functs_where(double c, double a, double b)\n\
       { return c != 0.0 ? a : b; }\n\n\
       %s\
       const char functs_cjit_header[] = %S;\n\
       const long functs_cjit_nfns = %d;\n\
       typedef long (*functs_cjit_fn)(double **, const long *, long, long, \
       long);\n\
       functs_cjit_fn const functs_cjit_table[] = { %s };\n"
      Jit_cache.version digest body (Jit_cache.header digest)
      (ngroups + List.length loops)
      table
  in
  (digest, source)

let entry_of (em : Jit_emit.emitted) fn =
  (* the unit's outer extents are this engine's, fixed for its lifetime *)
  let ints = Array.make (max 1 (em.e_nints + Array.length em.e_sites)) 0 in
  Array.iter
    (fun (n : Jit_emit.enest) ->
      Array.iteri (fun d ext -> ints.(n.e_ext_pos + d) <- ext) n.e_ext)
    em.e_nests;
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
    en_seen = Array.make nsites None;
    en_nsites =
      (let ns = Array.make (Array.length em.e_nests) 0 in
       Array.iter
         (fun (s : Jit_emit.esite) -> ns.(s.e_nest) <- ns.(s.e_nest) + 1)
         em.e_sites;
       ns);
    en_scratch = Array.make (Array.length em.e_stmts) None;
  }

(* A loop kernel: the launch function, one binding entry per member
   kernel (its own scratch, apart from the group's), and the launch
   arrays and step buffers it keeps across runs. *)
type loop = {
  lo_em : Jit_emit.eloop;
  lo_fn : Jit_cache.fn;
  lo_members : entry array;
  lo_bufs : float array array;
  lo_ints : int array;
  mutable lo_scratch : Tensor.t array;
      (* per [l_scratch] entry, then two step buffers per double-buffered
         carried slot; allocated on the first launch *)
  mutable lo_packed : float array array;
}

let loop_of (l : Jit_emit.eloop) ~tbl fn =
  {
    lo_em = l;
    lo_fn = fn;
    lo_members =
      Array.map
        (fun (m : Jit_emit.lmember) ->
          entry_of m.lm_em { Jit_cache.tbl; idx = m.lm_fn })
        l.l_members;
    lo_bufs = Array.make l.l_nbufs [||];
    lo_ints = Array.make l.l_nints 0;
    lo_scratch = [||];
    lo_packed = [||];
  }

type armed = { groups : (int * entry) list; loops : (int * loop) list }

let no_entries = { groups = []; loops = [] }

(* A unit whose compile is still running.  [pd_job] is replaced when a
   cancel (another owner closing) stops the compile under a pending
   engine: its next poll starts the unit again. *)
type pending = {
  pd_emitted : Jit_emit.emitted list;
  pd_loops : Jit_emit.eloop list;
  pd_dir : string;
  pd_digest : string;
  pd_source : string;
  mutable pd_job : Jit_cache.job;
}

type started = Armed of armed | Pending of pending

let nfns pd = List.length pd.pd_emitted + List.length pd.pd_loops

let restart pd =
  pd.pd_job <-
    Jit_cache.start ~dir:pd.pd_dir ~digest:pd.pd_digest ~source:pd.pd_source
      ~nfns:(nfns pd)

(* The entries of a finished unit; every emitted group ticks
   [jit.c.groups] or, when the unit failed, [jit.c.fallback]. *)
let settled pd = function
  | Ok tbl ->
      Metrics.incr ~by:(List.length pd.pd_emitted) groups_c;
      let ngroups = List.length pd.pd_emitted in
      {
        groups =
          List.mapi
            (fun idx (em : Jit_emit.emitted) ->
              (em.e_group, entry_of em { Jit_cache.tbl; idx }))
            pd.pd_emitted;
        loops =
          List.mapi
            (fun i (l : Jit_emit.eloop) ->
              (l.l_node, loop_of l ~tbl { Jit_cache.tbl; idx = ngroups + i }))
            pd.pd_loops;
      }
  | Error _ ->
      Metrics.incr ~by:(List.length pd.pd_emitted) fallback_c;
      no_entries

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

(* Loop kernels for the [Sequential] loops of [g] whose bodies qualify
   ({!Jit_emit.emit_loop}); the others are traced as [jit.c.reject]. *)
let emit_loops (g, plan) ~shapes emitted =
  let groups =
    List.mapi (fun i (em : Jit_emit.emitted) -> (em.e_group, i, em)) emitted
  in
  List.filter_map
    (fun (n : Graph.node) ->
      match (n.n_op, Fusion.loop_verdict plan n) with
      | Op.Loop, Loop_par.Sequential _ -> (
          match Jit_emit.emit_loop g n ~plan ~shapes ~groups with
          | Ok l -> Some l
          | Error reason ->
              Tracer.instant "jit.c.reject"
                ~args:[ ("loop", string_of_int n.n_id); ("reason", reason) ];
              None)
      | _ -> None)
    (Graph.all_nodes g)

let start_groups ?loops ~mode ~dir ~kernels ~shapes () =
  match (mode, kernels) with
  | Off, _ | _, [] -> Armed no_entries
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
      let loops =
        match loops with
        | Some gp ->
            Tracer.span "jit.emit_loops" (fun () ->
                emit_loops gp ~shapes emitted)
        | None -> []
      in
      match emitted with
      | [] -> Armed no_entries
      | _ -> (
          let digest, source = render_source ~isa:(isa ()) ~loops emitted in
          let dir = resolve_dir dir in
          let pd =
            {
              pd_emitted = emitted;
              pd_loops = loops;
              pd_dir = dir;
              pd_digest = digest;
              pd_source = source;
              pd_job =
                Jit_cache.start ~dir ~digest ~source
                  ~nfns:(List.length emitted + List.length loops);
            }
          in
          match poll pd with Some entries -> Armed entries | None -> Pending pd))

let prepare_groups ~mode ~dir ~kernels ~shapes =
  match start_groups ~mode ~dir ~kernels ~shapes () with
  | Armed entries -> entries.groups
  | Pending pd -> (await pd).groups

(* Bind one kernel's launch arrays: [out j st] gives memory statement
   [j]'s output tensor, [site] the tensor each read site binds and
   [scalar] its free index symbols.  The generated code only reads statically
   bounded sites without checks, so each of them must pass the
   stride/extent check against the tensor actually bound, and a matmul
   operand must be contiguous; anything that does not line up raises
   {!Fallback} before native code runs. *)
let bind (e : entry) ~out ~site ~scalar =
  let em = e.en_em in
  let nmem = Array.length em.e_stmts in
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
        let t : Tensor.t = out j st in
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
            match site s with
            | Some t -> t
            | None -> fb "unbound tensor %s" (Codegen.value_ref s.e_value))
      in
      if Tensor.ndim t <> s.e_rank then
        fb "rank mismatch on %s" (Codegen.value_ref s.e_value);
      if s.e_dense && s.e_live && not (Tensor.is_contiguous t) then
        fb "%s is not contiguous" (Codegen.value_ref s.e_value);
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
          if s.e_live && not same_as_last then begin
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
      bufs.(nmem + s.e_slot) <- data;
      ints.(em.e_nints + s.e_slot) <- Array.length data;
      ints.(s.e_ints_pos) <- t.Tensor.offset;
      for k = 0 to s.e_rank - 1 do
        ints.(s.e_ints_pos + 1 + k) <- t.Tensor.strides.(k)
      done)
    em.e_sites;
  outs

(* An unstored output (a temporary another nest reads) never escapes
   the group, so it lives in a per-entry buffer instead of a pool round
   trip per launch. *)
let scratch_out (e : entry) j (st : Jit_emit.estmt) =
  match e.en_scratch.(j) with
  | Some t -> t
  | None ->
      (* every element is written before any site reads it, so the
         first launch may start from uninitialised memory *)
      let t = Tensor.uninit st.e_shape in
      e.en_scratch.(j) <- Some t;
      t

(* [par] (when provided) must cover the whole range [0, n) with disjoint
   [body lo hi] calls, sequentially or not — {!Pool.parallel_for}'s
   contract.  Each nest's outermost loop is then split across ranges;
   nests still run in order (the launch joins before the next nest), so
   cross-nest reads stay ordered, rows of one nest never read each
   other, and every output element is written by exactly one range, so
   results are bitwise-identical to a sequential launch. *)
let run ?par ~grain (e : entry) ~alloc ~lookup ~scalar =
  let em = e.en_em in
  let bufs = e.en_bufs and ints = e.en_ints in
  let outs =
    bind e ~scalar
      ~site:(fun s -> lookup s.Jit_emit.e_value)
      ~out:(fun j (st : Jit_emit.estmt) ->
        if st.e_store then alloc st.e_shape else scratch_out e j st)
  in
  (* a tripped guard (an out-of-range dynamic index) discards the launch *)
  let trip () =
    Array.fill bufs 0 (Array.length bufs) [||];
    fb "dynamic index out of bounds in group %d" em.e_group
  in
  (* when no nest is worth a parallel split, the whole group runs in
     one native call ([nest = -1] falls through every case at full
     extent) — per-call stub overhead is paid once, not once per nest *)
  let split (n : Jit_emit.enest) = n.e_rows >= 2 && n.e_numel >= 2 * grain in
  (match par with
  | Some par when Array.exists split em.e_nests ->
      let tripped = ref false in
      Array.iteri
        (fun j (n : Jit_emit.enest) ->
          let launch lo hi =
            if Jit_cache.call e.en_fn bufs ints j lo hi <> 0 then tripped := true
          in
          if split n then begin
            let inner = n.e_numel / n.e_rows in
            par
              ~grain:(max 1 (grain / max 1 inner))
              ~bytes_per_iter:(8 * (1 + e.en_nsites.(j)) * inner)
              ~n:n.e_rows launch
          end
          else launch 0 n.e_rows;
          if !tripped then trip ())
        em.e_nests
  | _ -> if Jit_cache.call e.en_fn bufs ints (-1) 0 0 <> 0 then trip ());
  Array.fill bufs 0 (Array.length bufs) [||];
  Array.to_list
    (Array.mapi
       (fun j (st : Jit_emit.estmt) -> (st.e_out, outs.(j), st.e_store))
       em.e_stmts)

let loop_rows (l : loop) =
  Array.map
    (function Jit_emit.Lrow _ -> true | Jit_emit.Ldouble _ -> false)
    l.lo_em.l_carries

(* The step buffers and scratch a loop keeps across launches: one per
   [l_scratch] entry, then two per double-buffered carried slot. *)
let loop_scratch (l : loop) =
  if Array.length l.lo_scratch = 0 then begin
    let em = l.lo_em in
    let steps =
      Array.to_list em.l_carries
      |> List.concat_map (function
           | Jit_emit.Ldouble d -> [ d.d_shape; d.d_shape ]
           | Jit_emit.Lrow _ -> [])
    in
    l.lo_scratch <-
      Array.append
        (Array.map (fun (_, shape, _) -> Tensor.uninit shape) em.l_scratch)
        (Array.of_list (List.map Tensor.uninit steps));
    l.lo_packed <- Array.map (fun n -> Array.create_float n) em.l_packed_len
  end;
  l.lo_scratch

let run_loop (l : loop) ~trip ~carried ~alloc ~copy ~lookup ~scalar =
  let em = l.lo_em in
  let scratch = loop_scratch l in
  let nscratch = Array.length em.l_scratch in
  (* the step buffers of double-buffered slot [j] *)
  let step_bufs = Array.make (Array.length em.l_carries) (-1) in
  let next = ref nscratch in
  Array.iteri
    (fun j -> function
      | Jit_emit.Ldouble _ ->
          step_bufs.(j) <- !next;
          next := !next + 2
      | Jit_emit.Lrow _ -> ())
    em.l_carries;
  let bufs = l.lo_bufs and ints = l.lo_ints in
  let data (t : Tensor.t) = Storage.data t.Tensor.storage in
  let set_buf i (t : Tensor.t) = bufs.(i) <- data t in
  (* validate the carried tensors before anything is written *)
  Array.iteri
    (fun j c ->
      let t : Tensor.t = carried.(j) in
      match c with
      | Jit_emit.Ldouble d ->
          if t.Tensor.shape <> d.d_shape then
            fb "carried slot %d has another shape" j
      | Jit_emit.Lrow r ->
          if t.Tensor.shape <> r.r_shape || not (Tensor.is_contiguous t) then
            fb "row-written slot %d is not a contiguous %s" j
              (Shape.to_string r.r_shape);
          if trip > r.r_shape.(0) then
            fb "%d steps write past %d rows" trip r.r_shape.(0))
    em.l_carries;
  let value_of = function
    | Jit_emit.Lcur j -> Some scratch.(step_bufs.(j))
    | Jit_emit.Lnext j -> Some scratch.(step_bufs.(j) + 1)
    | Jit_emit.Lscratch k -> Some scratch.(k)
    | Jit_emit.Lfixed -> None
  in
  Array.iteri
    (fun k (m : Jit_emit.lmember) ->
      let e = l.lo_members.(k) in
      let me = m.lm_em in
      let nmem = Array.length me.e_stmts in
      ignore
        (bind e
           ~scalar:(fun name ->
             if name = em.l_induction then Some 0 else scalar name)
           ~out:(fun j st ->
             match value_of m.lm_refs.(j) with
             | Some t -> t
             | None -> scratch_out e j st)
           ~site:(fun s ->
             match value_of m.lm_refs.(nmem + s.e_slot) with
             | Some t -> Some t
             | None -> lookup s.e_value));
      Array.blit e.en_bufs 0 bufs m.lm_buf0 (Array.length e.en_bufs);
      Array.blit e.en_ints 0 ints m.lm_int0 (Array.length e.en_ints);
      Array.fill e.en_bufs 0 (Array.length e.en_bufs) [||])
    em.l_members;
  let outs =
    Array.mapi
      (fun j c ->
        match c with
        | Jit_emit.Ldouble d ->
            let a = scratch.(step_bufs.(j)) in
            copy a carried.(j);
            set_buf d.d_buf a;
            set_buf (d.d_buf + 1) scratch.(step_bufs.(j) + 1);
            let o : Tensor.t = alloc d.d_shape in
            set_buf (d.d_buf + 2) o;
            ints.(d.d_int) <- Shape.numel d.d_shape;
            ints.(d.d_int + 1) <- o.Tensor.offset;
            o
        | Jit_emit.Lrow r ->
            let t : Tensor.t = carried.(j) in
            set_buf r.r_buf t;
            ints.(r.r_int) <- t.Tensor.offset;
            ints.(r.r_int + 1) <- Shape.numel r.r_shape / max 1 r.r_shape.(0);
            t)
      em.l_carries
  in
  Array.iteri (fun k (_, _, i) -> set_buf i scratch.(k)) em.l_scratch;
  Array.iteri (fun k p -> bufs.(em.l_packed_buf0 + k) <- p) l.lo_packed;
  ints.(0) <- trip;
  let status = Jit_cache.call l.lo_fn bufs ints (-1) 0 0 in
  Array.fill bufs 0 (Array.length bufs) [||];
  if status <> 0 then fb "dynamic index out of bounds in loop %d" em.l_node;
  outs
