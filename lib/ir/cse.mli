(** Common sub-expression elimination.

    Merges structurally identical pure nodes with identical inputs,
    scoped so a replacement always dominates its uses (a nested block
    sees its ancestors' expressions).  This is an optimization that
    functionalization {e unlocks}: with mutation present, two identical
    reads may observe different memory states, so [run] refuses graphs
    containing any [aten::…_] node and reports zero merges.

    [aten::clone] and tensor-constructor nodes ([zeros], [rand]-like) are
    never merged: their output identity (fresh storage) is significant. *)

val run : Graph.t -> int
(** Number of nodes merged away (0 on graphs with mutations). *)

val has_mutation : Graph.t -> bool
(** Does any [aten::…_] node remain? *)

