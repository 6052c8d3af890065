(** Render an imperative AST program back as Python-style source, for
    examples and documentation. *)

val program_to_string : Ast.program -> string
