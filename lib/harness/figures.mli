(** Regeneration of every figure in the paper's evaluation (§5.2–5.4).

    {!reports} renders each figure as a text table, by the name
    [functs report] and [bench/main.exe] take; {!fig6_rows} and
    {!headline} return structured data for tests and examples. *)

open Functs

val reports : (string * (unit -> string)) list
(** Figure name → renderer, in the order [functs report] lists them:
    [fig5] (end-to-end speedup over PyTorch eager), [fig6]
    (kernel-launch counts), [fig7] (speedup across batch sizes), [fig8]
    (latency across sequence lengths), [headline] (§5.2), [ablation]
    (TensorSSA vs. no-horizontal vs. no-vertical fusion), and the CSV
    exports [fig5.csv] ([platform,workload,pipeline,speedup] rows) and
    [fig6.csv] ([workload,pipeline,kernel_launches] rows). *)

val all_checks_passed : unit -> bool
(** Whether every cached measurement matched the eager reference. *)

(** {1 Fig. 6 — kernel-launch counts} *)

type fig6_row = {
  f6_workload : Workload.t;
  f6_kernels : (Compiler_profile.t * int) list;
}

val fig6_rows : unit -> fig6_row list

(** {1 Headline (§5.2)} *)

val headline : unit -> float * float
(** (mean, max) speedup of TensorSSA over the {e best} baseline across all
    workloads and both platforms. *)
