(** Native JIT backend driver: lowers an engine preparation's fused
    kernels to C ({!Jit_emit}), compiles and loads them through the
    on-disk artifact cache ({!Jit_cache}), and launches them with
    per-run validation.

    The C unit is shape-generic: innermost and reduction extents are
    literal, outer extents are [ints] entries that each engine's entry
    fills from its own shapes.  Engines of one workload at different
    batch sizes therefore render the same source and digest, and all
    but the first resolve it as a [jit.c.hit] instead of a compile.

    Compiles are tiered: {!start_groups} returns at once.  A memory or
    disk hit comes back [Armed]; a miss comes back [Pending] while [cc]
    runs in the background, and the caller {!poll}s for the entries
    (the engine does so at the start of each run), {!await}s them, or
    {!cancel}s the compile.  {!prepare_groups} is the synchronous form.

    Failure never crosses the engine API: a finished unit that failed
    (missing or hung compiler, compile error) ticks [jit.c.fallback]
    once per emitted group and arms nothing, kernels the emitter
    rejects are skipped, and {!run} raises only {!Fallback}, which the
    scheduler converts into a per-node launch for that group.  Without
    a C compiler every group runs node by node. *)

open Functs_ir
open Functs_tensor
open Functs_core

type mode = Off | Auto
(** [Auto] arms every group whose kernel compiles natively and lets the
    scheduler's tuner pick native or per-node execution per group;
    [Off] disables the JIT. *)

val mode_of_string : string -> mode option
(** ["off"], ["auto"], and ["on"] as an alias of ["auto"]. *)

val mode_to_string : mode -> string

val set_c_compiler : string -> unit
(** Override the C compiler (default ["cc"]; [FUNCTS_JIT_CC] overrides
    through [Config.of_env]). *)

val set_c_compile_bound : float -> unit
(** Test hook: wall-clock seconds after which a compile is killed (see
    {!Jit_cache.set_compile_bound}). *)

val c_toolchain_available : unit -> bool

val isa : unit -> string
(** The ISA every kernel is compiled for: ["avx2"] when the running CPU
    supports AVX2, else ["default"] (the compiler's baseline).  Read
    from the host once per process; nothing sets it. *)

val clear_loaded : unit -> unit

val default_dir : unit -> string
(** Fallback artifact directory under the system temp dir; the real
    default ([~/.cache/functs/jit]) is resolved by [Config.of_env]. *)

val resolve_dir : string -> string
(** [""] resolves to {!default_dir}. *)

type entry
(** One JIT-armed group: its native launch function plus per-engine
    scratch. *)

val has_c : entry -> bool
(** Always [true]: a group is armed only once its C kernel compiled.
    Kept so callers can count C-lane groups. *)

val render_source : isa:string -> Jit_emit.emitted list -> string * string
(** [(digest, source)] of the C unit holding [emitted]: one function per
    kernel, compiled for [isa] alone ([target("avx2")] per kernel for
    ["avx2"], no attribute for ["default"]).  The digest covers the
    codegen version, [isa] and every kernel body — which holds no outer
    extent, so it is the same for every batch size of a graph. *)

type pending
(** A unit whose compile is still running. *)

type started =
  | Armed of (int * entry) list
      (** [(group id, entry)] for each kernel that made it to native
          code: a memory or disk hit, or a failure (then empty). *)
  | Pending of pending  (** an artifact miss: [cc] runs in the background *)

val start_groups :
  mode:mode ->
  dir:string ->
  kernels:Codegen.kernel list ->
  shapes:Shape_infer.result ->
  started
(** Emit the given kernels and resolve their unit through
    {!Jit_cache.start}.  Never waits for a compiler and never raises. *)

val poll : pending -> (int * entry) list option
(** [None] while the compile runs; then, exactly once per pending
    unit, its entries ([[]] when it failed).  A compile cancelled under
    it (another owner of the shared job closed) is started again. *)

val await : pending -> (int * entry) list
(** Poll until the unit finishes. *)

val cancel : pending -> unit
(** Kill the unit's compile (see {!Jit_cache.cancel}); a later {!poll}
    starts it again. *)

val pending_digest : pending -> string

val prepare_groups :
  mode:mode ->
  dir:string ->
  kernels:Codegen.kernel list ->
  shapes:Shape_infer.result ->
  (int * entry) list
(** {!start_groups}, then {!await} a pending unit: returns
    [(group id, entry)] for each kernel that made it to native code.
    Never raises. *)

exception Fallback of string

val run :
  ?par:
    (grain:int ->
    bytes_per_iter:int ->
    n:int ->
    (int -> int -> unit) ->
    unit) ->
  grain:int ->
  entry ->
  alloc:(Shape.t -> Tensor.t) ->
  lookup:(Graph.value -> Tensor.t option) ->
  scalar:(string -> int option) ->
  (Graph.value * Tensor.t * bool) list
(** Launch one group natively: [alloc] provides output buffers (each is
    fully overwritten), [lookup] resolves external tensor reads and
    [scalar] free index symbols.  Returns [(value, tensor, stored)] per
    statement in order, where [stored] marks values that escape the
    kernel.  [par] — typically [Pool.parallel_for] partially applied
    by the scheduler — must cover [0, n) with disjoint [body lo hi]
    calls; each statement whose output holds at least [2 * grain]
    elements then splits its outermost loop across it, joining
    before the next statement so cross-statement reads stay ordered and
    results stay bitwise-identical.  Raises
    {!Fallback} when a binding fails validation or a guarded index
    leaves its buffer — the caller releases this launch's allocations
    and demotes the group. *)
