(** The one rule for "an engine run reproduced its reference".

    The reference interpreter is the oracle.  Every check of an engine
    or session output — tests, the bench's gates, the CLI's MATCH line —
    compares with these functions and nothing else.

    The engine reproduces the interpreter's operation order exactly, and
    the per-node leaves run the interpreter's own exp and sigmoid
    ([functs_exp.h], vectorised), so the rule is bitwise.  The one
    allowance is for native code: where the C JIT links libmvec, its
    vectorised transcendentals are glibc's, within 4 ulp of scalar libm
    (and of the interpreter's exp, 1 ulp from glibc's, within 5).  A run
    that launched a native kernel may therefore differ by
    [atol 1e-12 + rtol 1e-9 * |ref|] per element. *)

open Functs_interp

val bitwise : Value.t list -> Value.t list -> bool
(** [bitwise expected got]: equal lengths, and pairwise equal values.
    Tensors need equal shapes and equal [Int64] bit patterns element by
    element, so [-0.0 <> 0.0] and a NaN matches only its own payload;
    [Float] scalars compare bits too; [Int] and [Bool] compare exactly;
    lists recurse. *)

val matches : native:bool -> Value.t list -> Value.t list -> bool
(** [bitwise], or, when [native] (the run launched native code), every
    float within the libmvec bound above.  NaN still only matches NaN. *)

val run : Engine.t -> Value.t list -> Value.t list * bool
(** [Engine.run], plus whether the run launched native code (its
    [Scheduler.cjit_runs] moved): the [native] argument of {!matches}. *)
