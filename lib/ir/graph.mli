(** Mutable graph-level IR: values, nodes and nested blocks.

    The structure mirrors TorchScript: a graph owns one top-level block;
    control-flow nodes ([prim::If], [prim::Loop]) own nested blocks with
    parameters and returns (the functional-SSA form where dependent values
    are passed as block arguments).

    Invariants (checked by {!Verifier}):
    - every value is defined exactly once (node output or block parameter);
    - every use is dominated by its definition;
    - [If] has two blocks whose return arities equal the node's output
      arity; [Loop] has one block with params [i :: carried] and returns
      [carried'] matching the node's carried inputs/outputs.

    Use lists are not maintained incrementally; {!uses_in} and the rewrite
    helpers scan the graph, which is O(n) per query and plenty for the
    graph sizes involved. *)

type value = {
  v_id : int;
  mutable v_name : string;
  mutable v_type : Dtype.t;
  mutable v_origin : origin;
}

and origin =
  | Def of node * int  (** i-th output of a node *)
  | Param of block * int  (** i-th parameter of a block *)
  | Detached  (** not currently defined (transient, during surgery) *)

and node = {
  n_id : int;
  mutable n_op : Op.t;
  mutable n_inputs : value list;
  mutable n_outputs : value list;
  mutable n_blocks : block list;
  mutable n_parent : block option;
}

and block = {
  b_id : int;
  mutable b_params : value list;
  mutable b_nodes : node list;
  mutable b_returns : value list;
  mutable b_parent : node option;
}

type t = { g_name : string; g_block : block }

(** {1 Construction} *)

val create : string -> param_types:(string * Dtype.t) list -> t
val params : t -> value list
val returns : t -> value list
val set_returns : t -> value list -> unit

val make_node : Op.t -> value list -> output_types:Dtype.t list -> node
(** Build an unattached node; fresh output values are created. *)

val make_node_named :
  Op.t -> value list -> outputs:(string * Dtype.t) list -> node

(** {1 Attachment and surgery} *)

val append : block -> node -> unit
val prepend : block -> node -> unit

val insert_before : anchor:node -> node -> unit
(** Insert into the anchor's block just before it.
    @raise Invalid_argument if the anchor is unattached. *)

val insert_after : anchor:node -> node -> unit

val remove_node : node -> unit
(** Detach from its block; output values become [Detached].
    @raise Invalid_argument if any output still has uses. *)

val erase_node : node -> unit
(** Like {!remove_node} but without the use check — for nodes whose outputs
    are about to be rebound by the caller. *)

val add_block : node -> block
val add_block_param : block -> ?name:string -> Dtype.t -> value
val add_block_return : block -> value -> unit
val add_node_output : node -> ?name:string -> Dtype.t -> value
val add_node_input : node -> value -> unit

(** {1 Queries} *)

val node_block : node -> block
(** @raise Invalid_argument if unattached. *)

val node_index : node -> int
(** Position within its block. *)

val defining_node : value -> node option
val defining_block : value -> block
(** The block a value is available in: owner for params, parent block of
    the defining node otherwise.  @raise Invalid_argument if detached. *)

val iter_nodes : t -> (node -> unit) -> unit
(** Pre-order over all nodes, outer blocks first, nested blocks immediately
    after their owning node. *)

val iter_block_nodes : block -> (node -> unit) -> unit
(** Pre-order restricted to one block subtree. *)

val all_nodes : t -> node list

type use = Input of node * int | Return of block * int

val uses_in : t -> value -> use list
val has_uses : t -> value -> bool

(** {1 Rewriting} *)

val replace_all_uses : t -> old_value:value -> new_value:value -> unit

val replace_uses_after : anchor:node -> old_value:value -> new_value:value -> unit
(** Replace uses of [old_value] occurring strictly after [anchor] within
    the anchor's block: inputs of later nodes (including everything inside
    their nested blocks) and the block's returns. *)

val is_ancestor_block : ancestor:block -> block -> bool

val clone : t -> t
(** Deep structural copy with fresh ids; the original is untouched. *)

val size : t -> int
(** Total node count, nested blocks included. *)
