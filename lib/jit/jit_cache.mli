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
    {!start} resolves a digest through four levels — in-process
    launch-table memo, a compile of the same digest already in flight
    (joined), on-disk artifact, and finally a fresh compile guarded by a
    lockfile, bounded in wall-clock time and installed with an atomic
    rename.  A fresh compile runs in the background: {!start} returns a
    pending {!job} at once and {!poll} advances it without blocking.
    Artifacts stamped with a different version, and any [functs_jit_v*]
    file of the retired OCaml lane, are evicted the first time a
    directory is used.

    Counters: [jit.c.hit] (memo, join or disk), [jit.c.miss] (compile
    needed), [jit.c.compiles] (successful compiler runs),
    [jit.c.evicted].  Span: [jit.c.load]; trace instant
    [jit.c.compile] (with an [isa] argument) when a compiler starts. *)

val version : int
(** Codegen version stamp baked into artifact names and headers. *)

type fn = { tbl : nativeint; idx : int }
(** A compiled kernel: index [idx] of a dlopen'd artifact's launch
    table.  The table pointer lives for the process lifetime. *)

val call : fn -> float array array -> int array -> int -> int -> int -> int
(** [call f bufs ints nest lo hi] runs loop nest [nest] for rows
    [lo, hi) of its outermost loop ([nest = -1]: every nest at full
    extent), over raw [double*] views of the float arrays and
    untagged ints (see {!Jit_emit} for the layout).  Returns the kernel's
    guard status: [0] on success, nonzero when a dynamically-indexed
    read would have left its buffer — the caller must discard the launch
    (the driver raises [Jit.Fallback]). *)

val header : string -> string
(** The header ([functs_cjit_header]) an artifact of this digest must
    present. *)

val set_compile_bound : float -> unit
(** Test hook: the wall-clock bound, in seconds, after which a compile
    is killed and reported as [`Failed _] (default 45, below the 60 s
    stale-lock age).  Enforced by {!poll}: a job nobody polls is killed
    at its first poll past the bound. *)

type job
(** One resolution of a digest.  Finished at once on a memo or disk hit
    (or a failure that needs no compiler); otherwise pending while a
    compiler runs (or another process holds the digest's lockfile), and
    shared by every {!start} of the same digest until it finishes. *)

type status = [ `Pending | `Ready of nativeint | `Failed of string | `Cancelled ]
(** [`Ready tbl] carries the raw launch-table pointer (wrap each index
    in a {!fn}). *)

val start : dir:string -> digest:string -> source:string -> nfns:int -> job
(** Resolve [digest], compiling [source] at most once per digest across
    processes.  Never waits for a compiler (the lockfile is only tried,
    never waited on) and never raises. *)

val poll : job -> status
(** Advance a pending job without blocking: reap its compiler when it
    has exited (running the scalar-libm retry, installing and loading
    the artifact), kill it once it outlives the bound (a [Jit_demote]
    journal record), or probe the lockfile another process holds.
    Every failure is a [`Failed _]. *)

val cancel : job -> unit
(** Stop a pending job: SIGKILL its compiler's whole process group, reap
    it, and remove the lockfile and build directory.  A finished job is
    left as it is.  Every engine waiting on the job sees [`Cancelled];
    a process's jobs still in flight at exit are cancelled by an
    [at_exit] hook. *)

val clear_loaded : unit -> unit
(** Test hook: cancel every job in flight and drop the in-process memo
    (and per-directory eviction marks), so the next {!start} exercises
    the disk path like a fresh process. *)
