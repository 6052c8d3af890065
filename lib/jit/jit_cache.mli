(** On-disk artifact store for JIT-compiled kernel groups.

    Artifacts are [.so] files named
    [functs_cjit_v<version>_<digest>.so]: the codegen [version] stamp
    plus the MD5 digest of the generated C source, compiled by [cc] and
    loaded with dlopen through the [cjit_stubs.c] host stubs.  The
    source is shape-generic ({!Jit_emit}): only innermost and reduction
    extents are literal, so engines that differ in outer extents (the
    serving buckets of one workload) share a digest and one artifact.  The unit
    holds one function per kernel, compiled for the host's ISA only
    ([Jit.isa]); the digest covers that ISA, so a directory shared by
    hosts with different ISAs holds one [.so] per ISA and never hands a
    host another's.
    [get_or_build] resolves a digest through three levels — in-process
    launch-table memo, on-disk artifact, and finally a fresh compile
    guarded by a lockfile, bounded in wall-clock time and installed with
    an atomic rename.  Artifacts stamped with a different version, and
    any [functs_jit_v*] file of the retired OCaml lane, are evicted the
    first time a directory is used.

    Counters: [jit.c.hit] (memo or disk), [jit.c.miss] (compile needed),
    [jit.c.compiles] (successful compiler runs), [jit.c.evicted].  Spans:
    [jit.c.compile] (with an [isa] argument), [jit.c.load]. *)

val version : int
(** Codegen version stamp baked into artifact names and headers. *)

type fn = { tbl : nativeint; idx : int }
(** A compiled kernel: index [idx] of a dlopen'd artifact's launch
    table.  The table pointer lives for the process lifetime. *)

val call : fn -> float array array -> int array -> int -> int -> int -> int
(** [call f bufs ints stmt lo hi] runs statement [stmt] for rows
    [lo, hi) of its outermost loop ([stmt = -1]: every statement
    at full extent), over raw [double*] views of the float arrays and
    untagged ints (see {!Jit_emit} for the layout).  Returns the kernel's
    guard status: [0] on success, nonzero when a dynamically-indexed
    read would have left its buffer — the caller must discard the launch
    (the driver raises [Jit.Fallback]). *)

val header : string -> string
(** The header ([functs_cjit_header]) an artifact of this digest must
    present. *)

val set_compile_bound : float -> unit
(** Test hook: the wall-clock bound, in seconds, after which a compile
    is killed and reported as an [Error _] (default 45, below the 60 s
    stale-lock age). *)

val get_or_build :
  dir:string ->
  digest:string ->
  source:string ->
  nfns:int ->
  (nativeint, string) result
(** Resolve the raw launch-table pointer for [digest] (wrap each index
    in a {!fn}), compiling [source] at most once per digest across
    processes.  Never raises. *)

val clear_loaded : unit -> unit
(** Test hook: drop the in-process memo (and per-directory eviction
    marks), so the next [get_or_build] exercises the disk path like a
    fresh process. *)
