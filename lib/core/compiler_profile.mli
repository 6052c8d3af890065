(** Compiler pipeline profiles — the subject ({e TensorSSA}) and the
    baselines of the paper's evaluation (§5.1), each described by what it
    can fuse, whether it functionalizes first, and which runtime drives
    control flow.

    The profiles encode exactly the differences the paper attributes to
    each pipeline: TorchScript backends (NNC, nvFuser) cannot fuse across
    views and treat mutation as a fusion break; TorchDynamo+TorchInductor
    functionalizes data flow (so views/mutations fuse within straight-line
    regions) but breaks graphs at control flow, which then runs under the
    Python interpreter; TensorSSA functionalizes holistically, fuses the
    [immut::] operators, and may parallelize loops horizontally. *)

open Functs_ir

(** How a node behaves for fusion-group formation. *)
type op_class =
  | Free  (** no device kernel, does not break a fusion run *)
  | Fusible  (** may join a fusion group *)
  | Kernel  (** its own kernel; breaks runs *)
  | Break  (** no kernel (e.g. a view descriptor update) but breaks runs *)
  | Control  (** [prim::If] / [prim::Loop] *)

(** Who executes control flow and op dispatch, for the cost model. *)
type runtime =
  | Python_eager  (** per-op framework dispatch from Python *)
  | Torchscript  (** compiled graph, small per-op interpreter cost *)
  | Dynamo
      (** compiled regions called from Python; control flow interpreted,
          each region invocation pays a graph-call overhead *)

type t = {
  name : string;
  short_name : string;  (** for table columns, e.g. ["TS+NNC"] *)
  functionalize : bool;  (** run the TensorSSA conversion first *)
  horizontal : bool;  (** horizontal loop parallelization enabled *)
  parallel_reductions : bool;
      (** execute associative-accumulator loops as chunked partial
          reductions (requires [horizontal]) *)
  runtime : runtime;
  classify : Op.t -> op_class;
}

val eager : t
val ts_nnc : t
val ts_nvfuser : t
val dynamo_inductor : t
val tensorssa : t

val all : t list
(** Evaluation order: eager, TS+NNC, TS+nvFuser, Dynamo+Inductor, TensorSSA. *)

val baselines : t list
(** [all] without TensorSSA. *)

(** {1 Ablations (extension beyond the paper)} *)

val tensorssa_no_horizontal : t
(** TensorSSA without horizontal loop parallelization. *)

val tensorssa_no_fusion : t
(** Functionalization only: every immut:: op its own kernel. *)

val find : string -> t option
(** Look up any profile (including ablations) by [short_name]; one
    ablation, [TensorSSA-noR] (TensorSSA with [Reduction]-classified
    loops demoted to sequential), is reached only here. *)

(** {1 Compile-cache counters}

    Hit/miss/evict counters for the execution engine's shape-keyed
    compile cache.  The counters live in the process-wide metrics
    registry ({!Functs_obs.Metrics}, names [engine.cache.*]); this
    module names them so the engine can increment and every layer —
    CLI, bench, tests — can read the same record without depending on
    the engine. *)

val cache_hit : unit -> unit
val cache_miss : unit -> unit
val cache_eviction : unit -> unit
(** Incrementers, called by [Functs_exec.Engine] only. *)

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
}
(** An immutable point-in-time reading. *)

val cache_snapshot : unit -> cache_stats

val reset_compile_cache : unit -> unit
(** Zero the three [engine.cache.*] counters. *)
