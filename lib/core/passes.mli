(** Standard pass pipelines.

    [optimize] is the cleanup pipeline run after functionalization:
    constant folding / control-flow simplification, then CSE (legal
    because the graph is mutation-free — on graphs that still contain
    mutations CSE is a no-op), then DCE, iterated to a fixpoint.  Given
    the parameters' shapes ([inputs], as for {!Shape_infer.infer}), the
    fold step also replaces each whole-tensor [immut::assign[[]](base,
    src)] whose base and source shapes are statically equal by [src]:
    the assign copies [src] bit for bit (e.g. LSTM's per-step
    [out[t] = h] no longer copies [out[t]] first).  A step-1 slice
    access or assign whose constant bounds cover a statically known dim
    counts as whole-tensor, and a whole-tensor access is replaced by
    its input (fcos's [slice(dim=0, 0, 1)] chain).  It does so only on
    mutation-free graphs.

    [tensorssa_pipeline] is the full compilation used by the experiment
    harness for the TensorSSA profiles: functionalize, then optimize. *)

open Functs_ir

type report = {
  folds : int;
  cse_merged : int;
  dce_removed : int;
  rounds : int;
}

val optimize : ?inputs:Shape_infer.shape option list -> Graph.t -> report

val tensorssa_pipeline :
  ?verify:bool ->
  ?inputs:Shape_infer.shape option list ->
  Graph.t ->
  Convert.stats * report

val for_profile :
  ?inputs:Shape_infer.shape option list -> Compiler_profile.t -> Graph.t -> unit
(** Lower [g] in place the way [profile] compiles it: the full
    [tensorssa_pipeline] when [profile.functionalize], nothing otherwise
    (the baselines fuse the imperative graph, mutations and all).  Every
    consumer that takes a profile lowers through this. *)
