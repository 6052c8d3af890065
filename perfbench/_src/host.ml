(* What every result is recorded with, so a 2-core number is never read
   as a multicore one: processor count and model, the compiler the JIT's
   C lane calls, and the OCaml version. *)

let first_line cmd =
  match Unix.open_process_in cmd with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      String.trim line
  | exception Unix.Unix_error _ -> ""

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> ""
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec find () =
            match input_line ic with
            | exception End_of_file -> ""
            | line -> (
                match String.index_opt line ':' with
                | Some k when String.trim (String.sub line 0 k) = "model name" ->
                    String.trim
                      (String.sub line (k + 1) (String.length line - k - 1))
                | _ -> find ())
          in
          find ())

(* The text after [key:] on the first matching line of /proc/self/status. *)
let status_field key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let prefix = key ^ ":" in
          let rec find () =
            match input_line ic with
            | exception End_of_file -> None
            | line when String.starts_with ~prefix line ->
                let n = String.length prefix in
                Some (String.trim (String.sub line n (String.length line - n)))
            | _ -> find ()
          in
          find ())

(* Peak resident set of this process, in MiB (VmHWM). *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> Scanf.sscanf v "%f kB" (fun kb -> kb /. 1024.)
  | None -> nan

let record () =
  let open Functs.Json in
  Obj
    [
      ("nproc", Str (first_line "nproc 2>/dev/null"));
      ("online_cpus", Str (first_line "getconf _NPROCESSORS_ONLN 2>/dev/null"));
      ( "recommended_domain_count",
        Num (float_of_int (Domain.recommended_domain_count ())) );
      ("cpu_model", Str (cpu_model ()));
      ( "cpus_allowed",
        Str (Option.value (status_field "Cpus_allowed_list") ~default:"") );
      ("cc_version", Str (first_line "cc --version 2>/dev/null"));
      ("ocaml_version", Str Sys.ocaml_version);
    ]
