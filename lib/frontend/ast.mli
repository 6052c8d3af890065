(** Imperative tensor-program AST — the PyTorch-like surface language.

    Programs are built with the combinators below (there is no textual
    parser); {!Pretty} renders them back as Python-style source.  The
    semantics deliberately mirror PyTorch:

    - [Subscript] (reads) produce tensor {e views} sharing storage;
    - [Store] / [Aug_store] write {e through} a view ([copy_] / in-place
      binary), implicitly mutating every alias;
    - [Aug] on a whole tensor variable is in-place ([a -= 1] is
      [a.sub_(1)]), lowered as the pure operator followed by [copy_]
      exactly as in the paper's Fig. 2;
    - [Assign] rebinds the name (no mutation). *)

open Functs_tensor

type index =
  | At of expr  (** [x\[i\]] — select *)
  | Range of expr * expr  (** [x\[a:b\]] — slice, step 1 *)

and fn =
  | Fn_matmul
  | Fn_softmax of int
  | Fn_sum_dim of int * bool
  | Fn_max_dim of int * bool
  | Fn_sum
  | Fn_mean
  | Fn_cat of int
  | Fn_stack of int
  | Fn_where
  | Fn_clone
  | Fn_cumsum of int
  | Fn_zeros of int array
  | Fn_ones of int array
  | Fn_full of int array
  | Fn_reshape of int array  (** view *)
  | Fn_permute of int array  (** view *)
  | Fn_expand of int array  (** view *)
  | Fn_unsqueeze of int  (** view *)
  | Fn_squeeze of int  (** view *)

and expr =
  | Var of string
  | Int_lit of int
  | Float_lit of float
  | Bool_lit of bool
  | Unop of Scalar.unary * expr
  | Binop of Scalar.binary * expr * expr
  | Subscript of expr * index list
  | Call of fn * expr list

type stmt =
  | Assign of string * expr  (** [x = e] — rebinding *)
  | Store of expr * expr  (** [target\[…\] = e] — mutation through a view *)
  | Aug of string * Scalar.binary * expr  (** [x += e] — in-place on x *)
  | Aug_store of expr * Scalar.binary * expr  (** [x\[i\] += e] *)
  | Fill of expr * float  (** [target.fill_(c)] *)
  | If of expr * stmt list * stmt list
  | For of string * expr * stmt list  (** [for i in range(e)] *)
  | Return of expr list

type program = {
  name : string;
  params : (string * Functs_ir.Dtype.t) list;
  body : stmt list;
}

(** {1 Combinators} *)

val var : string -> expr
val i : int -> expr
val f : float -> expr
val ( + ) : expr -> expr -> expr
val ( - ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val ( / ) : expr -> expr -> expr
val ( < ) : expr -> expr -> expr
val ( > ) : expr -> expr -> expr
val ( = ) : expr -> expr -> expr
val neg : expr -> expr
val exp : expr -> expr
val sigmoid : expr -> expr
val tanh : expr -> expr
val relu : expr -> expr
val sqrt : expr -> expr

val item : expr -> expr -> expr
(** [item x idx] is [x\[idx\]]. *)

val range_ : expr -> expr -> expr -> expr
(** [range_ x a b] is [x\[a:b\]]. *)

val sub2 : expr -> expr -> expr -> expr
(** [sub2 x a b] is [x\[a\]\[b\]]. *)

val matmul : expr -> expr -> expr
val softmax : expr -> dim:int -> expr
val clone : expr -> expr
val cat : expr list -> dim:int -> expr
val stack : expr list -> dim:int -> expr
val where : expr -> expr -> expr -> expr
val sum_dim : expr -> dim:int -> keepdim:bool -> expr
val max_dim : expr -> dim:int -> keepdim:bool -> expr
val zeros : int array -> expr
val ones : int array -> expr
val reshape : expr -> int array -> expr
val permute : expr -> int array -> expr
val expand : expr -> int array -> expr
val unsqueeze : expr -> int -> expr
val squeeze : expr -> int -> expr

val ( := ) : string -> expr -> stmt
val ( <-- ) : expr -> expr -> stmt
(** Store through a subscript target. *)

val incr_ : string -> expr -> stmt
(** [x += e]. *)

val if_ : expr -> stmt list -> stmt list -> stmt
val for_ : string -> expr -> stmt list -> stmt
val return_ : expr list -> stmt

val tensor_param : string -> string * Functs_ir.Dtype.t
val int_param : string -> string * Functs_ir.Dtype.t
