(* Host probes for the JIT: the C compiler and the target ISA.

   Probing shells out once per distinct command and caches the verdict
   for the process lifetime; [set_c_compiler] drops the stale memo entry
   for the new command so a replaced toolchain is re-probed (tests swap
   in a deliberately missing compiler and back).

   The default is plain [cc]; [FUNCTS_JIT_CC] overrides it through
   [Config.of_env] (the only sanctioned environment reader), which
   pushes the value here via {!set_c_compiler}.

   The ISA is read from the CPU once per process and is not a setting:
   every kernel is compiled for it alone — AVX-512F, AVX2 or the
   compiler's baseline, the widest the CPU has, named by its GCC target
   string (see [Jit.isa]). *)

let lock = Mutex.create ()
let probes : (string, bool) Hashtbl.t = Hashtbl.create 4
let c_cmd = ref "cc"
let probe_cmd cmd = cmd ^ " --version >/dev/null 2>&1"

let set_c_compiler cmd =
  Mutex.protect lock (fun () ->
      c_cmd := cmd;
      Hashtbl.remove probes (probe_cmd cmd))

let c_compiler () = !c_cmd

let c_available () =
  let cmd = probe_cmd !c_cmd in
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt probes cmd with
      | Some ok -> ok
      | None ->
          let ok = Sys.command cmd = 0 in
          Hashtbl.replace probes cmd ok;
          ok)

external host_isa : unit -> string = "functs_cjit_host_isa"

let host_isa = host_isa ()
let isa () = host_isa
