(** Tensor-expression code generation for fused kernels (paper §4.2.1:
    after TensorSSA conversion, Access/Assign regions "can be directly
    converted to equivalent tensor-level expression using a DSL by deep
    learning compiler backend").

    For every fusion group of a plan, [emit] produces one kernel: its
    external inputs, its escaping outputs, and one compute {e statement}
    per fused node.  View rules become index arithmetic, assigns become
    predicated selects, reductions become explicit combinators:

    {v
    kernel fused_0(t: [8, 4], s: [4]) -> (o: [8, 4]):
      store o[i0, i1] = ((i0 == k) ? relu(s[i1]) : t[i0, i1])
    v}

    Statements are built as expression ASTs, so kernels can be {e
    executed} ({!eval_kernel}) as well as rendered — the test suite runs
    every emitted kernel against the reference interpreter.  Shape
    information comes from {!Functs_ir.Shape_infer}. *)

open Functs_ir
open Functs_tensor

(** Symbolic index arithmetic (simplified on construction). *)
type ix = Ivar of string | Iconst of int | Iadd of ix * ix | Isub of ix * ix

type cond =
  | Ceq of ix * ix
  | Cge of ix * ix
  | Clt of ix * ix
  | Cmod of ix * ix * int  (** (a - b) mod step == 0 *)

(** Scalar compute expressions over indexed buffer reads. *)
type cexpr =
  | Cread of Graph.value * ix list
  | Clit of float
  | Cunary of Scalar.unary * cexpr
  | Cbinary of Scalar.binary * cexpr * cexpr
  | Ccond of cond list * cexpr * cexpr  (** all conds hold ? then : else *)
  | Cwhere of cexpr * cexpr * cexpr
      (** [where(c, a, b)]: [a] where [c <> 0] (NaN included), else [b];
          all three are evaluated at every point *)
  | Creduce of [ `Sum | `Max ] * string * int * cexpr
      (** combinator, reduction variable, extent, body *)
  | Cmatmul of Graph.value * Graph.value
      (** [a @ b] of two 2-D values, only ever a statement's whole
          expression: element [i0, i1] sums [a[i0, l] * b[l, i1]] from
          [+0.0] in ascending [l], the interpreter's order *)
  | Copaque of string  (** not executable (reshape/expand reindexing) *)

type statement = {
  s_out : Graph.value;
  s_rank : int;
  s_store : bool;  (** escapes the kernel (vs. a local temporary) *)
  s_expr : cexpr;
}

type kernel = {
  k_name : string;
  k_group : int;  (** fusion-group id of {!Fusion.plan} this kernel executes *)
  k_inputs : (string * Graph.value) list;
  k_outputs : (string * Graph.value) list;
  k_stmts : statement list;
}

val value_ref : Graph.value -> string
(** The buffer/symbol name a value gets in the DSL. *)

val emit : Graph.t -> Fusion.plan -> shapes:Shape_infer.result -> kernel list
val render : kernel -> shapes:Shape_infer.result -> string
val render_all : Graph.t -> Fusion.plan -> shapes:Shape_infer.result -> string

exception Not_executable of string
(** Raised by {!eval_kernel} on [Copaque] expressions or unknown shapes. *)

val eval_kernel :
  kernel ->
  shapes:Shape_infer.result ->
  lookup:(Graph.value -> Tensor.t option) ->
  scalar:(string -> int option) ->
  (Graph.value * Tensor.t) list
(** Execute every statement; [lookup] resolves external tensor reads,
    [scalar] resolves free scalar index symbols (dynamic select indices,
    loop variables).  Returns all statement results, stored and local. *)
