(** Differential equivalence harness: every registered workload runs
    through the reference interpreter and the engine (sequential, and
    batched at one and two lanes), and the outputs must be tensor-equal.

    This is the executor's ground truth — the same role the
    interpreter-vs-interpreter check plays for the functionalization pass. *)

open Functs_workloads

type outcome = {
  o_workload : string;
  o_ok : bool;
  o_detail : string;  (** which leg disagreed, or stats on success *)
}

val check_workload : ?batch:int -> ?seq:int -> Workload.t -> outcome
(** Lower, functionalize, and compare [Eval.run] on the original graph
    against the engine on the functionalized one (every leg), within
    [Value.equal ~atol:1e-4]. *)

val check_all : unit -> outcome list
(** All of {!Registry.all} plus {!Registry.extensions} at default scale. *)

val all_ok : outcome list -> bool
