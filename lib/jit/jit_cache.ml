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
   artifact.  A compile that outlives [compile_bound] is killed, so a
   hung compiler can neither wedge the caller nor outlive the lock. *)

(* The artifact digest covers the kernel bodies; changes to the fixed
   source wrapper must bump this stamp.  v2: entry points return a guard
   status (0 ok, nonzero = a dynamically-indexed read would have gone out
   of bounds), and buffer lengths ride in an ints tail.  v3: simd
   declarations route transcendentals through libmvec.  v4: clone set
   capped at AVX2 — the launches here are too short for 512-bit lanes to
   pay for themselves (measured call times were flat), and skipping the
   avx512f clone sidesteps its downclocking risk on server parts.  v5:
   one emitter owns the layout; exact Float.max/min/equal helpers.  v6:
   one function per kernel for the host's ISA instead of an
   ("avx2", "default") clone pair — a host only ever ran the clone its
   resolver picked, and the pair doubled every compile.  v7:
   shape-generic kernels — outer extents are read from [ints], and case
   comments no longer name value ids or shapes. *)
let version = 7

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

let call f bufs ints stmt lo hi = cjit_call f.tbl f.idx bufs ints stmt lo hi

let hit_c = Metrics.counter "jit.c.hit"
let miss_c = Metrics.counter "jit.c.miss"
let compiles_c = Metrics.counter "jit.c.compiles"
let evicted_c = Metrics.counter "jit.c.evicted"

let lock = Mutex.create ()
let loaded : (string, nativeint) Hashtbl.t = Hashtbl.create 8
let prepared_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4

(* Test hook: forgetting the in-process tables simulates a fresh
   process, so the disk-hit path can be exercised in one binary. *)
let clear_loaded () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset loaded;
      Hashtbl.reset prepared_dirs)

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

(* Run [cmd] through the shell with its output in [log], killing it once
   it has run for [compile_bound] seconds.  The shell [exec]s the
   command, so the process killed is the compiler driver itself. *)
let run_bounded cmd ~log =
  let out = Unix.openfile log Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () ->
        Unix.create_process "/bin/sh"
          [| "/bin/sh"; "-c"; "exec " ^ cmd |]
          Unix.stdin out out)
  in
  let deadline = Unix.gettimeofday () +. !compile_bound in
  let rec wait pause =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          `Killed
        end
        else begin
          Unix.sleepf pause;
          wait (Float.min 0.01 (pause *. 2.))
        end
    | _, Unix.WEXITED rc -> `Exited rc
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> `Exited (128 + abs s)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pause
  in
  wait 0.001

(* [-ffp-contract=off] keeps every multiply-add as two IEEE operations
   (bitwise parity with the interpreter, same discipline as
   gemm_stubs.c); [-fno-math-errno]/[-fno-trapping-math] change no bit
   patterns but let GCC vectorise sqrt/div.  Transcendental calls are
   the one sanctioned departure from bitwise: the generated unit
   declares simd variants of exp/log/tanh/pow, so the first compile
   attempt links [-lmvec] (glibc's vector libm, <= 4 ulp of scalar);
   when that link fails the retry defines [FUNCTS_NO_VECLIBM] and the
   same source compiles back down to bitwise scalar libm. *)
let compile_flags =
  "-O3 -shared -fPIC -ffp-contract=off -fno-math-errno -fno-trapping-math"

let compile_artifact ~dir ~digest ~source =
  Tracer.span_args "jit.c.compile"
    ~args:(fun () -> [ ("isa", Toolchain.isa ()) ])
  @@ fun () ->
  let base = artifact_base digest in
  let final = artifact_path ~dir ~digest in
  let build =
    Filename.concat dir
      (Printf.sprintf "build-%d-c-%s" (Unix.getpid ()) digest)
  in
  try
    mkdir_p build;
    if not (Sys.file_exists build && Sys.is_directory build) then
      Error ("cannot create build directory " ^ build)
    else begin
      let src = Filename.concat build (base ^ ".c") in
      let oc = open_out src in
      output_string oc source;
      close_out oc;
      let out = Filename.concat build (base ^ ".so") in
      let log = Filename.concat build "cc.log" in
      let compiler = Toolchain.c_compiler () in
      let attempt extra libs =
        run_bounded ~log
          (Printf.sprintf "%s %s %s -o %s %s %s" compiler compile_flags extra
             (Filename.quote out) (Filename.quote src) libs)
      in
      let status =
        match attempt "" "-lmvec -lm" with
        | `Exited 0 -> `Exited 0
        | `Killed -> `Killed
        | `Exited _ -> attempt "-DFUNCTS_NO_VECLIBM" "-lm"
      in
      let cleanup () =
        Array.iter
          (fun f -> try Sys.remove (Filename.concat build f) with _ -> ())
          (try Sys.readdir build with _ -> [||]);
        try Unix.rmdir build with _ -> ()
      in
      match status with
      | `Killed ->
          cleanup ();
          let msg =
            Printf.sprintf "%s killed after %.0f s" compiler !compile_bound
          in
          Journal.record Jit_demote "jit.c.compile" ~arm:"per_node" ~detail:msg;
          Error msg
      | `Exited rc when rc <> 0 ->
          let excerpt = read_excerpt log in
          cleanup ();
          Error (Printf.sprintf "%s failed (rc %d): %s" compiler rc excerpt)
      | `Exited _ -> (
          Metrics.incr compiles_c;
          match Sys.rename out final with
          | () ->
              cleanup ();
              Ok ()
          | exception e ->
              cleanup ();
              Error ("artifact install: " ^ Printexc.to_string e))
    end
  with e -> Error ("artifact compile: " ^ Printexc.to_string e)

let load_artifact path ~expect_header ~nfns =
  Tracer.span "jit.c.load" @@ fun () ->
  let tbl = cjit_load path expect_header nfns in
  if tbl = 0n then Error (Printf.sprintf "%s: %s" path (cjit_last_error ()))
  else Ok tbl

let acquire_or_wait ~lockpath ~final =
  let try_acquire () =
    match Unix.openfile lockpath Unix.[ O_CREAT; O_EXCL; O_WRONLY ] 0o644 with
    | fd ->
        Unix.close fd;
        `Acquired
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> `Held
    | exception _ -> `Acquired
    (* an unwritable directory surfaces as the real compile error *)
  in
  match try_acquire () with
  | `Acquired -> `Acquired
  | `Held ->
      let deadline = Unix.gettimeofday () +. lock_wait in
      let rec wait () =
        if Sys.file_exists final then `Appeared
        else if Unix.gettimeofday () > deadline then `Timeout
        else begin
          (match Unix.stat lockpath with
          | st when Unix.gettimeofday () -. st.Unix.st_mtime > stale_after -> (
              try Sys.remove lockpath with _ -> ())
          | _ -> ()
          | exception _ -> ());
          match try_acquire () with
          | `Acquired -> `Acquired
          | `Held ->
              Unix.sleepf 0.05;
              wait ()
        end
      in
      wait ()

(* Memo table, disk hit, lockfile-serialized compile; every failure is
   an [Error _]. *)
let get_or_build ~dir ~digest ~source ~nfns =
  Mutex.protect lock @@ fun () ->
  match Hashtbl.find_opt loaded digest with
  | Some tbl ->
      Metrics.incr hit_c;
      Ok tbl
  | None ->
      (* An unusable directory (no permission, path under a file, …)
         must degrade, not raise: the compile step below reports the
         real error as an [Error _]. *)
      (try mkdir_p dir with _ -> ());
      if not (Hashtbl.mem prepared_dirs dir) then begin
        Hashtbl.replace prepared_dirs dir ();
        evict_stale dir
      end;
      let expect_header = header digest in
      let final = artifact_path ~dir ~digest in
      let finish path =
        match load_artifact path ~expect_header ~nfns with
        | Ok tbl ->
            Hashtbl.replace loaded digest tbl;
            Ok tbl
        | Error e ->
            (* a corrupt artifact would otherwise wedge every process *)
            (try Sys.remove path with _ -> ());
            Error e
      in
      if Sys.file_exists final then begin
        Metrics.incr hit_c;
        finish final
      end
      else if not (Toolchain.c_available ()) then
        Error "C toolchain unavailable"
      else begin
        Metrics.incr miss_c;
        let lockpath = final ^ ".lock" in
        match acquire_or_wait ~lockpath ~final with
        | `Appeared -> finish final
        | `Timeout -> Error "timed out waiting for concurrent compile"
        | `Acquired ->
            Fun.protect
              ~finally:(fun () -> try Sys.remove lockpath with _ -> ())
              (fun () ->
                if Sys.file_exists final then finish final
                else
                  match compile_artifact ~dir ~digest ~source with
                  | Ok () -> finish final
                  | Error e -> Error e)
      end
