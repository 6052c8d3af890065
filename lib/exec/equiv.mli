(** The one rule for "an engine run reproduced its reference".

    The reference interpreter is the oracle.  Every check of an engine
    or session output — tests, the bench's gates, the CLI's MATCH line —
    compares with this function and nothing else.

    The engine reproduces the interpreter's operation order exactly, and
    every path — per-node leaves and JIT units alike — runs the
    interpreter's own exp, sigmoid and tanh ([functs_exp.h]) and its
    libm log and pow.  A matmul term is one fused multiply-add in the
    oracle ([Ops.matmul]: from [+0.0], [acc := fma a b acc] in ascending
    [l]) and in every GEMM, and fma is correctly rounded, so a hardware
    FMA and libm's [fma()] agree.  The rule is therefore bitwise, with
    no allowance. *)

open Functs_interp

val bitwise : Value.t list -> Value.t list -> bool
(** [bitwise expected got]: equal lengths, and pairwise equal values.
    Tensors need equal shapes and equal [Int64] bit patterns element by
    element, so [-0.0 <> 0.0] and a NaN matches only its own payload;
    [Float] scalars compare bits too; [Int] and [Bool] compare exactly;
    lists recurse. *)
