(** Operator vocabulary of the graph-level IR.

    The set mirrors the TorchScript operators the paper manipulates:

    - pure [aten::] compute operators;
    - [aten::] {e view} operators, whose result aliases the base tensor;
    - [aten::…_] {e mutation} operators, which write through a (possibly
      view) tensor in place;
    - the [immut::] operators introduced by TensorSSA — {!Access} and
      {!Assign} (Definitions 3.3 / 3.4) plus the [tssa::update] annotation
      (Definition 3.5);
    - [prim::] structural operators: constants, [If], [Loop], lists.

    Scalar operands of view rules (a select index, slice bounds) are node
    {e inputs}, so rules like [\[0, %i\]] can reference loop variables. *)

open Functs_tensor

(** The access rule [[·]] of a view, access or assign operator.  Dynamic
    operands (select index; slice start/stop) are node inputs that follow
    the tensor operand(s). *)
type view_kind =
  | Identity
      (** The empty rule [[]]: the whole tensor.  Never used by [aten::]
          view operators; [immut::access]/[immut::assign] use it for
          whole-tensor functional reads and overwrites. *)
  | Select of { dim : int }  (** extra inputs: index *)
  | Slice of { dim : int; step : int }  (** extra inputs: start, stop *)
  | Reshape of { shape : int array }
  | Permute of { dims : int array }
  | Expand of { sizes : int array }
  | Unsqueeze of { dim : int }
  | Squeeze of { dim : int }

val view_kind_to_string : view_kind -> string

type mutate_kind =
  | Mut_copy  (** [aten::copy_(dst, src)] *)
  | Mut_fill  (** [aten::fill_(dst, scalar)] *)
  | Mut_unary of Scalar.unary  (** e.g. [aten::sigmoid_(dst)] *)
  | Mut_binary of Scalar.binary  (** e.g. [aten::add_(dst, src)] *)

type const = Cfloat of float | Cint of int | Cbool of bool

type t =
  (* prim:: structure *)
  | Constant of const
  | If  (** inputs: cond; blocks: then, else; outputs = block returns *)
  | Loop
      (** counted loop. inputs: trip-count :: carried inits; one block with
          params (induction var :: carried) and returns (carried'). *)
  | List_construct
  | List_index  (** inputs: list, index *)
  | Scalar_binary of Scalar.binary  (** scalar arithmetic, e.g. loop index math *)
  (* pure aten:: compute *)
  | Unary of Scalar.unary
  | Binary of Scalar.binary  (** broadcasting; scalars promote to 0-d *)
  | Matmul
  | Softmax of { dim : int }
  | Sum
  | Sum_dim of { dim : int; keepdim : bool }
  | Max_dim of { dim : int; keepdim : bool }
  | Mean
  | Cat of { dim : int }
  | Stack of { dim : int }
  | Where
  | Cumsum of { dim : int }
  | Clone
  | Zeros of { shape : int array }
  | Ones of { shape : int array }
  | Full of { shape : int array }  (** input: fill scalar *)
  | Arange  (** input: length *)
  (* aliasing and mutation *)
  | View of view_kind  (** output aliases input 0 *)
  | Mutate of mutate_kind  (** writes through input 0; output aliases it *)
  (* TensorSSA immutable forms *)
  | Access of view_kind  (** functional view: copies the selected region *)
  | Assign of view_kind
      (** New version of base with the region under the rule replaced by
          src (inputs: base, src, rule operands).  [Assign Identity] is the
          whole-tensor functional overwrite, the paper's
          [immut::assign(v, w, \[\])]. *)
  | Update  (** [tssa::update(new, old)] annotation; no outputs *)

val name : t -> string
(** Qualified printable name, e.g. ["aten::add"], ["immut::select"],
    ["prim::Loop"]. *)

val is_view : t -> bool
val is_mutation : t -> bool
val is_control_flow : t -> bool

val has_side_effect : t -> bool
(** True for mutations (and nothing else at the operator level); control
    flow is side-effecting only through its body, which DCE checks
    recursively. *)
