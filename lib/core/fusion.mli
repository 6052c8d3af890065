(** Kernel-fusion planning (paper §4.2).

    Given a graph and a compiler profile ({!Compiler_profile.t}), assign
    every node a {e kernel class}:

    - [No_cost] — metadata-only at runtime (constants, scalar arithmetic
      in compiled modes, aliasing views in modes that execute them as
      descriptor updates);
    - [Kernel of group] — the node launches work on the device; nodes
      sharing a group id execute as one fused kernel per dynamic pass.

    Vertical fusion groups are maximal consecutive runs of fusible nodes
    within a block (interleaved [No_cost] nodes do not break a run) —
    consecutive pure operators can always legally fuse, and mutation or
    opaque operators break the run, which reproduces each baseline's
    graph-break behaviour.

    Horizontal parallelization classifies every [prim::Loop] with the
    {!Loop_par} dependence analysis: [Parallel] loops batch iterations
    across domains on shared buffers, [Reduction] loops split into
    chunked partial accumulators, and [Sequential] loops record why they
    could not be parallelized.  Profile knobs ([horizontal],
    [parallel_reductions]) can only demote verdicts. *)

open Functs_ir

type kernel_class = No_cost | Kernel of int  (** group id *)

type plan = {
  classes : (int, kernel_class) Hashtbl.t;  (** node id → class *)
  group_count : int;
  parallel_loops : (int, unit) Hashtbl.t;
      (** node ids of loops safe to batch ([Parallel] or [Reduction]) *)
  loop_verdicts : (int, Loop_par.verdict) Hashtbl.t;
      (** node id → dependence-analysis verdict, for every loop *)
  escaping : (int, unit) Hashtbl.t;
      (** ids of values crossing a fusion-group boundary (read from outside
          the group or written for consumers outside it) *)
}

val plan : ?fence_loop_assigns:bool -> Compiler_profile.t -> Graph.t -> plan
(** Build the fusion plan.  [fence_loop_assigns] (default [false])
    leaves each [immut::assign] inside a loop body out of every group
    (class [No_cost], closing the run around it), so the surrounding
    compute chain stays kernel-eligible while the executor runs the
    assign per node and can donate it; no kernel is emitted for it.
    That is the execution engine's grouping; the cost model and figures
    keep the default, whose group count matches the paper's launch
    accounting. *)

val kernel_class_of : plan -> Graph.node -> kernel_class

val is_parallel_loop : plan -> Graph.node -> bool
(** Whether the loop may execute batched ([Parallel] or [Reduction]). *)

val loop_verdict : plan -> Graph.node -> Loop_par.verdict
(** The recorded verdict (profile demotions applied). *)

val value_escapes : plan -> Graph.value -> bool
(** Whether a fused-group value must be materialized to memory. *)

val group_sizes : plan -> (int * int) list
(** [(group_id, member_count)] for statistics and tests. *)
