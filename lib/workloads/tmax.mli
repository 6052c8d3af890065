(** Extension workload (beyond the paper's eight): temporal max-pooling
    over a frame sequence, written as an imperative accumulator loop
    [acc = max(acc, frames\[t\])].  The dependence analysis recognizes
    the associative Max accumulator and classifies the loop a
    {e parallel reduction}; the execution engine runs it on its
    sequential body ([seq]), which beats a chunked fold on this loop.
    Not part of the figure registry; exposed via
    {!Registry.extensions}. *)

val workload : Workload.t
