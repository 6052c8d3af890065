module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics
module Journal = Functs_obs.Journal

(* On-disk artifact store for JIT-compiled kernel groups.

   One [.so] holds every kernel of one engine preparation; the file name
   carries the codegen [version] stamp and the MD5 digest of the
   generated C source, so a warm process (or a second process) loads the
   artifact instead of recompiling — the digest covers statement
   structure, the literal innermost and reduction extents, the emitter
   version and the target ISA.  Outer extents travel in [ints] at launch,
   so engines of one workload at different batch sizes share a digest
   and one artifact.  Artifacts are compiled by
   [cc] from {!Jit_emit} output and loaded with dlopen through the
   [cjit_stubs.c] host stubs.

   Hygiene: artifacts of other codegen versions are evicted the first
   time a directory is used; concurrent same-digest compiles are
   serialized by a [.lock] file (O_CREAT|O_EXCL) with stale-lock
   breaking, and the compile itself happens in a private build directory
   followed by an atomic rename, so readers never observe a half-written
   artifact.  Compiles run in the background ([start] returns at once,
   [poll] advances them); one that outlives [compile_bound] is killed
   at the next poll, so a hung compiler can neither wedge the caller nor
   outlive the lock. *)

(* The artifact digest covers the kernel bodies and the embedded
   [functs_exp.h]; changes to the rest of the fixed source wrapper must
   bump this stamp.  v2: entry points return a guard
   status (0 ok, nonzero = a dynamically-indexed read would have gone out
   of bounds), and buffer lengths ride in an ints tail.  v3: simd
   declarations route transcendentals through libmvec.  v4: clone set
   capped at AVX2, after call times measured flat at 512 bits on the
   per-statement kernels of the time (before batched buckets existed).
   v5: one emitter owns the layout; exact Float.max/min/equal helpers.
   v6: one function per kernel for the host's ISA instead of an
   ("avx2", "default") clone pair — a host only ever ran the clone its
   resolver picked, and the pair doubled every compile.  v7:
   shape-generic kernels — outer extents are read from [ints], and case
   comments no longer name value ids or shapes.  v8: one loop nest per
   fused group (the launch's [nest] argument indexes nests, and
   temporaries live in local rows), compiled for AVX-512F on hosts that
   have it: lstm's b16 cell group measured 49–53 µs per launch at AVX2
   and 40–45 µs at AVX-512 on a 2-vCPU AVX-512 Xeon, the same test the
   GEMM kernel's AVX-512 pick already makes.  v9: a matmul is a kernel
   statement lowered to the GEMM microkernel, whose header text
   ([gemm_kernel.h], packed-panel entries included) the unit embeds, and
   a sequential loop can be one loop-kernel function.  v10: [omp simd]
   fast rows, and [static] kernels behind the exported table.  v11:
   exp and sigmoid go through macros that a second, scalar-libm build
   maps to the embedded [functs_exp.h].  v12: one build, linking only
   [-lm]: exp, sigmoid and tanh call the embedded [functs_exp.h]
   directly, and the ISA levels target "avx2,fma" and
   "avx512f,avx512vl".  v13: the GEMM fuses each matmul term into one
   fma (vector FMA tiles, [__builtin_fma] rows), the interpreter's
   matmul rule. *)
let version = 13

(* A compiled kernel: index [idx] of one artifact's launch table.  The
   table pointer is a raw [dlsym] result (never freed), so the handle is
   just a nativeint. *)
type fn = { tbl : nativeint; idx : int }

external cjit_load : string -> string -> int -> nativeint = "functs_cjit_load"
external cjit_last_error : unit -> string = "functs_cjit_error"

external cjit_call :
  nativeint -> int -> float array array -> int array -> int -> int -> int ->
  int = "functs_cjit_call_bytecode" "functs_cjit_call"
[@@noalloc]

let call f bufs ints nest lo hi = cjit_call f.tbl f.idx bufs ints nest lo hi

let hit_c = Metrics.counter "jit.c.hit"
let miss_c = Metrics.counter "jit.c.miss"
let compiles_c = Metrics.counter "jit.c.compiles"
let evicted_c = Metrics.counter "jit.c.evicted"

let lock = Mutex.create ()
let loaded : (string, nativeint) Hashtbl.t = Hashtbl.create 8
let prepared_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4

let prefix = "functs_cjit_v"

(* Artifacts of the retired OCaml lane ([.cmxs] plugins and their
   lockfiles); nothing loads them any more. *)
let legacy_prefix = "functs_jit_v"
let artifact_base digest = Printf.sprintf "%s%d_%s" prefix version digest
let artifact_name digest = artifact_base digest ^ ".so"
let artifact_path ~dir ~digest = Filename.concat dir (artifact_name digest)
let header digest = Printf.sprintf "functs-cjit/v%d/%s" version digest

let rec mkdir_p d =
  if d = "" || d = "/" || d = "." || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Drop every artifact (and leftover lock) stamped with a different
   codegen version, and everything the retired OCaml lane left behind:
   their layout assumptions no longer hold, and nothing will ever load
   them again. *)
let evict_stale dir =
  match Sys.readdir dir with
  | exception _ -> ()
  | files ->
      let keep = Printf.sprintf "%s%d_" prefix version in
      Array.iter
        (fun f ->
          if
            String.starts_with ~prefix:legacy_prefix f
            || (String.starts_with ~prefix f
               && not (String.starts_with ~prefix:keep f))
          then
            try
              Sys.remove (Filename.concat dir f);
              Metrics.incr evicted_c;
              Journal.record Cache_evict "jit.c.artifact_cache" ~detail:f
            with _ -> ())
        files

let read_excerpt path =
  match open_in path with
  | exception _ -> ""
  | ic ->
      let n = min 400 (in_channel_length ic) in
      let b = really_input_string ic n in
      close_in ic;
      String.map (function '\n' -> ' ' | c -> c) b

(* Same-key compiles across processes serialize on a lockfile; a holder
   that died leaves a lock older than [stale_after], which the next
   waiter breaks.  Waiters poll for the artifact itself, so the winner's
   atomic rename releases everyone at once.  [compile_bound] stays below
   [stale_after], so a live holder's lock is never broken. *)
let stale_after = 60.0
let lock_wait = 10.0
let compile_bound = ref 45.0
let set_compile_bound s = compile_bound := s

(* [-ffp-contract=off] keeps every elementwise multiply-add as two IEEE
   operations, as the interpreter computes it (same discipline as
   gemm_stubs.c).  Only explicit fmas fuse: each matmul term of
   [gemm_kernel.h] (the interpreter's matmul rule) and the fma() calls
   of [functs_exp.h], which round once in hardware and libm alike.
   [-fno-math-errno]/[-fno-trapping-math] change no bit patterns but let
   GCC vectorise sqrt/div and the selects of [functs_exp.h];
   [-fopenmp-simd] honours the emitter's [omp simd] pragmas without the
   OpenMP runtime.  Every unit compiles this one way, linking only
   [-lm]: exp, sigmoid and tanh are the interpreter's own, embedded,
   and log/pow are the scalar libm calls it makes. *)
let compile_flags =
  "-O3 -shared -fPIC -fopenmp-simd -ffp-contract=off -fno-math-errno \
   -fno-trapping-math"

let load_artifact path ~expect_header ~nfns =
  Tracer.span "jit.c.load" @@ fun () ->
  let tbl = cjit_load path expect_header nfns in
  if tbl = 0n then Error (Printf.sprintf "%s: %s" path (cjit_last_error ()))
  else Ok tbl

external spawn : string -> string -> int = "functs_cjit_spawn"

(* --- background compiles ---

   A miss starts the compiler as a child process and returns a [job] at
   once: nothing on the caller's path waits for [cc].  [poll] advances a
   job without blocking (a [WNOHANG] wait on the compiler, or the
   lockfile probes of a compile another process holds); it enforces
   [compile_bound] and installs the artifact, so a job moves only when
   someone polls it.  A unit is one [cc] run: a failed one fails the
   job.  Jobs in flight are keyed by digest: a second start of the same
   unit joins the first instead of compiling again.  [lock] guards the tables and is only
   ever held for non-blocking steps.

   The compiler runs in a process group of its own (see
   [functs_cjit_spawn]) with [TMPDIR] in its build directory, so a
   cancel or a timeout kills cc1/as/ld with [cc] itself and leaves no
   file behind.  It is not niced: on a host where the caller keeps the
   only CPU busy, a niced compile would never finish. *)

type compile = {
  c_pid : int;  (* the [cc] process, leader of its process group *)
  c_deadline : float;
  c_build : string;  (* private build directory *)
}

type state =
  | Lock_wait of float
      (* another process compiles this digest; give up at this time *)
  | Compiling of compile  (* our compiler runs; we hold the lockfile *)
  | Done of (nativeint, string) result
  | Cancelled

type job = {
  j_dir : string;
  j_digest : string;
  j_source : string;
  j_nfns : int;
  mutable j_state : state;
}

let jobs : (string, job) Hashtbl.t = Hashtbl.create 4
let final_of j = artifact_path ~dir:j.j_dir ~digest:j.j_digest
let lock_of j = final_of j ^ ".lock"
let remove_quiet path = try Sys.remove path with _ -> ()

let remove_build build =
  Array.iter
    (fun f -> remove_quiet (Filename.concat build f))
    (try Sys.readdir build with _ -> [||]);
  try Unix.rmdir build with _ -> ()

(* SIGKILL the compiler's whole process group and reap [cc] (its own
   children are reparented when it dies, and cannot run again). *)
let kill_group pid =
  (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ()

let unregister j =
  match Hashtbl.find_opt jobs j.j_digest with
  | Some j' when j' == j -> Hashtbl.remove jobs j.j_digest
  | _ -> ()

let settle j r =
  j.j_state <- Done r;
  unregister j

(* Load an installed artifact and memoize it; a corrupt one is removed,
   or it would wedge every later process. *)
let load_final j =
  let path = final_of j in
  match load_artifact path ~expect_header:(header j.j_digest) ~nfns:j.j_nfns with
  | Ok tbl ->
      Hashtbl.replace loaded j.j_digest tbl;
      Ok tbl
  | Error e ->
      remove_quiet path;
      Error e

let try_acquire lockpath =
  match Unix.openfile lockpath Unix.[ O_CREAT; O_EXCL; O_WRONLY ] 0o644 with
  | fd ->
      Unix.close fd;
      `Acquired
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> `Held
  | exception _ -> `Acquired
(* an unwritable directory surfaces as the real compile error *)

let artifact_files j ~build =
  let base = Filename.concat build (artifact_base j.j_digest) in
  (base ^ ".c", base ^ ".so", Filename.concat build "cc.log")

(* Holding the lockfile: write the source to a private build directory
   and start the compiler over it. *)
let begin_compile j =
  Tracer.instant "jit.c.compile" ~args:[ ("isa", Toolchain.isa ()) ];
  let build =
    Filename.concat j.j_dir
      (Printf.sprintf "build-%d-c-%s" (Unix.getpid ()) j.j_digest)
  in
  try
    mkdir_p build;
    if not (Sys.file_exists build && Sys.is_directory build) then
      failwith ("cannot create build directory " ^ build);
    let src, out, log = artifact_files j ~build in
    let oc = open_out src in
    output_string oc j.j_source;
    close_out oc;
    let cmd =
      Printf.sprintf "TMPDIR=%s exec %s %s -o %s %s -lm" (Filename.quote build)
        (Toolchain.c_compiler ()) compile_flags (Filename.quote out)
        (Filename.quote src)
    in
    match spawn cmd log with
    | pid when pid > 0 ->
        j.j_state <-
          Compiling
            {
              c_pid = pid;
              c_deadline = Unix.gettimeofday () +. !compile_bound;
              c_build = build;
            }
    | _ -> failwith ("cannot start " ^ Toolchain.c_compiler ())
  with e ->
    remove_build build;
    remove_quiet (lock_of j);
    settle j
      (Error
         (match e with
         | Failure m -> m
         | e -> "artifact compile: " ^ Printexc.to_string e))

let finish_compile j c r =
  remove_build c.c_build;
  remove_quiet (lock_of j);
  settle j r

let step_compile j c =
  let compiler = Toolchain.c_compiler () in
  match Unix.waitpid [ Unix.WNOHANG ] c.c_pid with
  | 0, _ ->
      if Unix.gettimeofday () > c.c_deadline then begin
        kill_group c.c_pid;
        let msg =
          Printf.sprintf "%s killed after %.0f s" compiler !compile_bound
        in
        Journal.record Jit_demote "jit.c.compile" ~arm:"per_node" ~detail:msg;
        finish_compile j c (Error msg)
      end
  | _, Unix.WEXITED 0 -> (
      Metrics.incr compiles_c;
      let _, out, _ = artifact_files j ~build:c.c_build in
      match Sys.rename out (final_of j) with
      | () -> finish_compile j c (load_final j)
      | exception e ->
          finish_compile j c (Error ("artifact install: " ^ Printexc.to_string e)))
  | _, (Unix.WEXITED rc | Unix.WSIGNALED rc | Unix.WSTOPPED rc) ->
      let rc = if rc < 0 then 128 + abs rc else rc in
      let _, _, log = artifact_files j ~build:c.c_build in
      let excerpt = read_excerpt log in
      finish_compile j c
        (Error (Printf.sprintf "%s failed (rc %d): %s" compiler rc excerpt))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception e ->
      (* no longer our child: nothing left to kill *)
      finish_compile j c (Error ("artifact compile: " ^ Printexc.to_string e))

(* Another process holds the lockfile: its atomic rename ends the wait;
   a lock older than [stale_after] belongs to a dead holder and is
   broken. *)
let step_lock_wait j deadline =
  let final = final_of j and lockpath = lock_of j in
  if Sys.file_exists final then settle j (load_final j)
  else begin
    (match Unix.stat lockpath with
    | st when Unix.gettimeofday () -. st.Unix.st_mtime > stale_after ->
        remove_quiet lockpath
    | _ -> ()
    | exception _ -> ());
    match try_acquire lockpath with
    | `Acquired ->
        if Sys.file_exists final then begin
          remove_quiet lockpath;
          settle j (load_final j)
        end
        else begin_compile j
    | `Held ->
        if Unix.gettimeofday () > deadline then
          settle j (Error "timed out waiting for concurrent compile")
  end

type status = [ `Pending | `Ready of nativeint | `Failed of string | `Cancelled ]

let status j : status =
  match j.j_state with
  | Lock_wait _ | Compiling _ -> `Pending
  | Done (Ok tbl) -> `Ready tbl
  | Done (Error e) -> `Failed e
  | Cancelled -> `Cancelled

let poll j =
  Mutex.protect lock @@ fun () ->
  (match j.j_state with
  | Lock_wait deadline -> step_lock_wait j deadline
  | Compiling c -> step_compile j c
  | Done _ | Cancelled -> ());
  status j

let cancel_locked j =
  match j.j_state with
  | Compiling c ->
      kill_group c.c_pid;
      remove_build c.c_build;
      remove_quiet (lock_of j);
      j.j_state <- Cancelled;
      unregister j
  | Lock_wait _ ->
      j.j_state <- Cancelled;
      unregister j
  | Done _ | Cancelled -> ()

let cancel j = Mutex.protect lock (fun () -> cancel_locked j)

let cancel_all_locked () =
  List.iter cancel_locked (Hashtbl.fold (fun _ j acc -> j :: acc) jobs [])

(* Engines outside sessions may still wait on a compile at exit: nothing
   outlives the process. *)
let () = at_exit (fun () -> Mutex.protect lock cancel_all_locked)

(* Test hook: forgetting the in-process tables (and cancelling what is in
   flight) simulates a fresh process, so the disk-hit path can be
   exercised in one binary. *)
let clear_loaded () =
  Mutex.protect lock (fun () ->
      cancel_all_locked ();
      Hashtbl.reset loaded;
      Hashtbl.reset prepared_dirs)

(* Memo hit, join of a compile in flight, disk hit, or a fresh compile;
   only the last is a miss.  Never blocks on the compiler and never
   raises: every failure settles the job with an [Error _]. *)
let start ~dir ~digest ~source ~nfns =
  Mutex.protect lock @@ fun () ->
  let j =
    { j_dir = dir; j_digest = digest; j_source = source; j_nfns = nfns;
      j_state = Cancelled }
  in
  match (Hashtbl.find_opt loaded digest, Hashtbl.find_opt jobs digest) with
  | Some tbl, _ ->
      Metrics.incr hit_c;
      settle j (Ok tbl);
      j
  | None, Some joined ->
      Metrics.incr hit_c;
      joined
  | None, None ->
      (* An unusable directory (no permission, path under a file, …)
         must degrade, not raise: the compile step reports the real
         error as an [Error _]. *)
      (try mkdir_p dir with _ -> ());
      if not (Hashtbl.mem prepared_dirs dir) then begin
        Hashtbl.replace prepared_dirs dir ();
        evict_stale dir
      end;
      if Sys.file_exists (final_of j) then begin
        Metrics.incr hit_c;
        settle j (load_final j)
      end
      else if not (Toolchain.c_available ()) then
        settle j (Error "C toolchain unavailable")
      else begin
        Metrics.incr miss_c;
        Hashtbl.replace jobs digest j;
        match try_acquire (lock_of j) with
        | `Acquired ->
            if Sys.file_exists (final_of j) then begin
              remove_quiet (lock_of j);
              settle j (load_final j)
            end
            else begin_compile j
        | `Held -> j.j_state <- Lock_wait (Unix.gettimeofday () +. lock_wait)
      end;
      j
