(** TorchScript-style textual rendering of graphs, e.g.:

    {v
    graph(%a.1 : Tensor, %b.1 : Tensor):
      %c : Tensor = aten::add(%a.1, %b.1)
      %r : Tensor = prim::Loop(%n, %c)
        block0(%i : int, %acc : Tensor):
          %t : Tensor = immut::select(%acc, 0, %i)
          -> (%t)
      return (%r)
    v} *)

val value_name : Graph.value -> string
(** Stable printable name ["%name.id"]; uniqueness comes from the id. *)

val to_string : Graph.t -> string
val node_to_string : Graph.node -> string
