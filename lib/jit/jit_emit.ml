open Functs_ir
open Functs_tensor
open Functs_core
open Codegen

(* Lowers one fused kernel ([Codegen.kernel]) to a C function behind the
   launch ABI

     long k(double **bufs, const long *ints, long nest, long lo, long hi)

   and, in the same walk, computes the launch layout the driver binds
   against:

     bufs : the statements that write memory, then one buffer per read
            site
     ints : per nest its outer extents, per site offset + strides and
            per memory statement the output offset (in discovery order),
            then the free scalars, then one buffer length per site

   Nests.  The kernel's statements are cut into loop nests before any
   text is emitted.  A map statement of rank >= 2 joins the open nest
   when it has the nest's outer extents and reads every earlier member
   at identity outer indices (an innermost index [c + a*i], statically
   inside the member's row, or anywhere under a [Ccond] branch, where
   it is checked per access).  Such a nest runs one loop over the shared
   outer dimensions; inside it each member computes its innermost row
   into a C local array of the literal innermost extent, and later
   members read that row ([g[i0, 128 + i1]] reads [r0[128 + i1]]).  Only
   a member that is stored, or read from another nest, writes memory; an
   unstored identity copy of a member is renamed to that member and
   emits nothing.  Reductions, rank 0 and 1 statements, rows wider than
   [max_row] and statements that read a member any other way close the
   open nest and get one of their own.  [lo, hi) splits a nest's
   outermost dimension: rows of one nest never read each other, so any
   split computes the same elements.  The unit is standalone C over
   <math.h> and is compiled with [-ffp-contract=off], so every emitted
   operation maps to exactly the IEEE operation the interpreter performs
   (the same discipline as [gemm_stubs.c]), in the same order per
   element, wherever its operands live.

   Shape-generic text.  Only two kinds of extent are literal: each
   statement's innermost extent (its output stride is 1), so the fast
   variant keeps a constant trip count and vectorises, and reduction
   extents.  Every outer extent is an [ints] entry read once at nest
   entry ([n0], [n1], ...); the outer loop bounds, [sh] for the
   whole-kernel entry, the dense output strides ([o<j>_s<d>]) and the
   launch guard's extent terms are all computed from them.  Nothing else
   shape-dependent reaches the text (case comments name values without
   id or shape), so the artifact digest keys on structure plus those
   literals: a workload's serving buckets render the same unit and
   compile once.  The launch layout ([e_shape], [e_bounds], [e_ext])
   stays concrete per emission, and the driver fills the extents from
   it.

   The emitter is the one acceptance check for native kernels: it
   rejects a [Copaque] expression, an unknown shape or reduction extent,
   an index variable outside the identifier discipline, a reduction
   below a statement's root and a forward read, and the group then runs
   node by node.

   The index grammar ([Codegen.ix]) is purely affine, so every site
   address decomposes into a hoisted base (offset plus constant and
   free-scalar parts) plus one integer coefficient per loop variable,
   all computed once per nest from [ints].  Each statement's innermost
   loop is emitted twice behind a runtime guard on its innermost
   coefficients: when every innermost-dependent site has stride 1 the
   fast variant indexes [b[p + i]] — contiguous, and marked [omp simd]
   when at least [simd_row] wide and free of per-access checks — and
   otherwise a generic [b[p + i*c]] variant runs.  Both orders are
   element-identical, so the guard never changes results.  Root
   reductions additionally block the innermost output dimension by 4
   with independent accumulators: each output element still combines
   its reduction terms in ascending order (bitwise identical to the
   scalar loop), but the four chains break the serial dependence and
   SLP-vectorise on the unit-stride path.

   Safety.  A site whose indices only involve loop and reduction
   variables and constants gets a static per-dimension index range
   ([e_bounds]); the driver checks it against the bound tensor's strides
   before every launch.  A site indexed by a free scalar (dynamic
   select/slice operands) gets an emitted {e launch guard} instead: the
   min/max flat index over the full iteration space, computed from the
   runtime extents, the actual strides and scalar values, is compared
   against the buffer length, and the kernel returns a nonzero status
   instead of touching memory when the range does not fit.  An unguarded site is
   evaluated at every iteration point, so the full-space range is exact.
   Reads under a [Ccond] branch may never execute at a given point, so
   they get a per-access range check instead (against the buffer
   length, or the row extent for a local row).  The driver maps a
   nonzero status to [Jit.Fallback].

   Value semantics.  [Ccond] lowers to the C ternary, which evaluates
   only the taken branch; conditions compare
   integer index expressions and [%] truncates like OCaml's [mod].
   [Float.max]/[Float.min]/[Float.equal] and [Relu] are spelled out with
   their OCaml NaN and signed-zero rules ([signbit], [x != x]) — never
   [fmax]/[fmin]/[==], which disagree on NaN payloads and on [-0.]/[+0.]
   — and NaN literals are emitted from their exact bit pattern.  Neg,
   Abs, Exp, Log, Sqrt, Tanh, Pow, Sigmoid, Add, Sub, Mul, Div, Lt and Gt
   map to the same libm symbols / IEEE operations the interpreter
   uses. *)

exception Reject of string

let fail fmt = Format.kasprintf (fun msg -> raise (Reject msg)) fmt

type esite = {
  e_value : Graph.value;
  e_slot : int;  (* read-site index; bufs index is nmem + slot *)
  e_rank : int;  (* number of index expressions *)
  e_nest : int;  (* owning nest *)
  e_live : bool;  (* the owning statement computes at least one element *)
  e_ints_pos : int;  (* ints position of [offset; strides.(0..rank-1)] *)
  e_bounds : (int * int) array option;
      (* per-dimension inclusive index range when statically known;
         [None] means the generated code checks the site itself *)
  e_dense : bool;
      (* read as one row-major block (a matmul operand): the bound
         tensor must be contiguous *)
}

type estmt = {
  e_out : Graph.value;
  e_store : bool;
  e_shape : int array;
  e_out_pos : int;  (* ints position of the output offset *)
}

type enest = {
  e_ext_pos : int;  (* ints position of the outer extents *)
  e_ext : int array;  (* this emission's outer extents *)
  e_rows : int;  (* extent of the dimension [lo, hi) splits *)
  e_numel : int;  (* elements its statements compute, rows included *)
}

(* A kernel that is one 2-D matmul: its operand sites, its reduction
   and innermost extents, and the ints position of its row count. *)
type egemm = { g_a : int; g_b : int; g_k : int; g_n : int; g_m_pos : int }

type emitted = {
  e_group : int;
  e_name : string;
  e_fn : string;
      (* body of the launch function — one switch case per nest,
         returning 0 or a nonzero guard status *)
  e_sites : esite array;
  e_stmts : estmt array;  (* the statements that write memory *)
  e_nests : enest array;
  e_free : string array;  (* free scalar symbols, in ints-tail order *)
  e_scalar_pos : int;  (* ints position of the first free scalar *)
  e_nints : int;  (* buffer lengths ride at [e_nints + slot] *)
  e_gemm : egemm option;
}

let nbufs em = Array.length em.e_stmts + Array.length em.e_sites

(* Index variables are C identifiers; "i<d>" with d below the statement
   rank is an output index variable. *)
let ident_ok name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_')
       name

let index_dim ~rank name =
  if String.length name >= 2 && name.[0] = 'i' then
    match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
    | Some d when d >= 0 && d < rank -> Some d
    | _ -> None
  else None

let rec no_reduce = function
  | Creduce _ | Cmatmul _ -> false
  | Cread _ | Clit _ | Copaque _ -> true
  | Cunary (_, e) -> no_reduce e
  | Cbinary (_, a, b) | Ccond (_, a, b) -> no_reduce a && no_reduce b
  | Cwhere (c, a, b) -> no_reduce c && no_reduce a && no_reduce b

let concrete_shape shapes (v : Graph.value) =
  match Option.bind (Shape_infer.shape_of shapes v) Shape_infer.concrete with
  | Some dims -> dims
  | None -> fail "unknown shape for %s" (value_ref v)

(* Hex float literals are exact in C99; a NaN is rebuilt from its bit
   pattern so its payload and sign survive. *)
let float_lit f =
  if Float.is_nan f then
    Printf.sprintf
      "((union { unsigned long long u; double d; }){ .u = 0x%LxULL }).d"
      (Int64.bits_of_float f)
  else if f = Float.infinity then "(1.0 / 0.0)"
  else if f = Float.neg_infinity then "(-1.0 / 0.0)"
  else Printf.sprintf "(%h)" f

(* Layout state shared by every statement of one kernel. *)
type kstate = {
  nmem : int;  (* statements that write memory; sites' bufs follow *)
  free : (string, int) Hashtbl.t;  (* scalar symbol -> ints-tail index *)
  mutable free_order : string list;  (* reversed discovery order *)
  mutable nsites : int;
  mutable next_int : int;
  mutable sites : esite list;  (* reversed *)
  all_outs : (int, unit) Hashtbl.t;
  computed : (int, unit) Hashtbl.t;
  mutable gemm : egemm option;
}

type env = {
  k : kstate;
  nest_idx : int;
  live : bool;  (* the statement computes at least one element *)
  rank : int;
  shape : int array;
      (* the statement's concrete output shape: it sets the per-engine
         layout ([e_bounds]); only its innermost extent reaches the C
         text *)
  exts : string array;
      (* C text of each output extent: the runtime [n<d>] for the outer
         dims, a literal for the innermost *)
  red : (string * int) option;  (* reduction variable and extent *)
  guarded : bool;
      (* inside a [Ccond] branch: reads there may never execute at a
         given point, so they get per-access checks instead of the
         full-range launch guard (which would trip spuriously) *)
  site_binds : Buffer.t;
  level_binds : string list ref array;  (* hoists for loop levels 0..rank-2 *)
  red_binds : string list ref;  (* hoists for the reduction loop (reversed) *)
  inner_sites : int list ref;  (* slots with innermost terms (reversed) *)
  rows : (int, int * int) Hashtbl.t;
      (* value id -> (statement index, innermost extent) of each earlier
         member of the nest: reads of these index its local row *)
  tile_ix : string;
      (* the row's tile subscript ("[i1 - t0]") in a tiled nest, else "" *)
}

(* A render function: the expression text, given the textual innermost
   index (e.g. "i1" or "(i1 + 2)") and which addressing variant is being
   emitted. *)
type render = inner:string -> fast:bool -> string

let scalar_index env name =
  match Hashtbl.find_opt env.k.free name with
  | Some k -> k
  | None ->
      let k = Hashtbl.length env.k.free in
      Hashtbl.replace env.k.free name k;
      env.k.free_order <- name :: env.k.free_order;
      k

(* Decompose one index expression into integer coefficients: constant
   part, one per output loop variable, one for the reduction variable,
   and [(scalar index, coefficient)] pairs for free scalars (ascending,
   nonzero only).  Any other identifier is a free scalar. *)
let affine env (ix : Codegen.ix) =
  let cst = ref 0 in
  let loops = Array.make (max 1 env.rank) 0 in
  let red = ref 0 in
  let scals = ref [] in
  let rec go sign = function
    | Iconst c -> cst := !cst + (sign * c)
    | Ivar name -> (
        if not (ident_ok name) then fail "non-affine index %S" name;
        match index_dim ~rank:env.rank name with
        | Some d -> loops.(d) <- loops.(d) + sign
        | None -> (
            match env.red with
            | Some (rname, _) when String.equal rname name ->
                red := !red + sign
            | _ ->
                let k = scalar_index env name in
                let n = Option.value ~default:0 (List.assoc_opt k !scals) in
                scals := (k, n + sign) :: List.remove_assoc k !scals))
    | Iadd (a, b) ->
        go sign a;
        go sign b
    | Isub (a, b) ->
        go sign a;
        go (-sign) b
  in
  go 1 ix;
  let scals =
    List.sort compare (List.filter (fun (_, n) -> n <> 0) !scals)
  in
  (!cst, loops, !red, scals)

(* Static inclusive range of one affine index over the statement's
   iteration space, or [None] when a free scalar participates. *)
let static_range env (cst, loops, red, scals) =
  if scals <> [] then None
  else begin
    let lo = ref cst and hi = ref cst in
    let span n extent =
      let t = n * (extent - 1) in
      if t < 0 then lo := !lo + t else hi := !hi + t
    in
    Array.iteri (fun d n -> if d < env.rank then span n env.shape.(d)) loops;
    (match env.red with Some (_, extent) -> span red extent | None -> ());
    Some (!lo, !hi)
  end

(* The innermost extent stays a literal so the fast variant vectorises;
   a rank-0 statement has one point. *)
let inner_extent env = if env.rank = 0 then 1 else env.shape.(env.rank - 1)

(* [c + a * i<rank-1>] as [(c, a)] when [ix] involves no other
   identifier. *)
let inner_affine ~rank ix =
  let inner = Printf.sprintf "i%d" (rank - 1) in
  let rec go sign ((c, a) as acc) = function
    | Iconst n -> Some (c + (sign * n), a)
    | Ivar name when String.equal name inner -> Some (c, a + sign)
    | Ivar _ -> None
    | Iadd (x, y) -> Option.bind (go sign acc x) (fun acc -> go sign acc y)
    | Isub (x, y) -> Option.bind (go sign acc x) (fun acc -> go (-sign) acc y)
  in
  go 1 (0, 0) ix

(* How a statement of [shape] reads an earlier nest member whose rows are
   [row] wide: identity outer indices and an innermost [c + a*i] either
   inside the row at every point ([`Static]) or, under a [Ccond] branch,
   checked per access ([`Checked]).  [None]: the read needs other rows,
   so the statement cannot join the member's nest. *)
let row_access ~shape ~row ~guarded ixs =
  let rank = Array.length shape in
  let outer_ok =
    List.length ixs = rank
    && List.for_all Fun.id
         (List.mapi
            (fun d ix ->
              d = rank - 1 || ix = Ivar (Printf.sprintf "i%d" d))
            ixs)
  in
  if not outer_ok then None
  else
    match inner_affine ~rank (List.nth ixs (rank - 1)) with
    | None -> None
    | Some (c, a) ->
        let t = a * (shape.(rank - 1) - 1) in
        if c + min 0 t >= 0 && c + max 0 t < row then Some (`Static (c, a))
        else if guarded then Some (`Checked (c, a))
        else None

let row_index (c, a) inner =
  match (c, a) with
  | 0, 1 -> inner
  | c, 0 -> string_of_int c
  | c, 1 -> Printf.sprintf "%d + %s" c inner
  | c, a -> Printf.sprintf "%d + (%d) * %s" c a inner

let emit_row_read env (v : Graph.value) ixs (idx, row) : render =
  match row_access ~shape:env.shape ~row ~guarded:env.guarded ixs with
  | None -> fail "row read of %s outside its row" (value_ref v)
  | Some (`Static ca) ->
      fun ~inner ~fast:_ ->
        Printf.sprintf "r%d%s[%s]" idx env.tile_ix (row_index ca inner)
  | Some (`Checked ca) ->
      fun ~inner ~fast:_ ->
        Printf.sprintf
          "({ const long y_ = %s; if (y_ < 0 || y_ >= %d) return 1; \
           r%d%s[y_]; })"
          (row_index ca inner) row idx env.tile_ix

let emit_site_read env (v : Graph.value) ixs : render =
  let k = env.k in
  if
    Hashtbl.mem k.all_outs v.Graph.v_id
    && not (Hashtbl.mem k.computed v.Graph.v_id)
  then fail "forward read of %s" (value_ref v);
  let slot = k.nsites in
  k.nsites <- slot + 1;
  let parts = List.map (affine env) ixs in
  let rank = List.length parts in
  let pos = k.next_int in
  k.next_int <- pos + 1 + rank;
  let bounds =
    if env.guarded then None
    else
      let ranges = List.map (static_range env) parts in
      if List.mem None ranges then None
      else Some (Array.of_list (List.map Option.get ranges))
  in
  k.sites <-
    {
      e_value = v;
      e_slot = slot;
      e_rank = rank;
      e_nest = env.nest_idx;
      e_live = env.live;
      e_ints_pos = pos;
      e_bounds = bounds;
      e_dense = false;
    }
    :: k.sites;
  (* base address: offset plus every constant and free-scalar
     contribution (scalars are launch constants from the ints tail),
     hoisted to statement entry *)
  let base = Buffer.create 64 in
  Buffer.add_string base (Printf.sprintf "ints[%d]" pos);
  List.iteri
    (fun d (cst, _, _, scals) ->
      if cst <> 0 then
        Buffer.add_string base
          (Printf.sprintf " + (%d) * ints[%d]" cst (pos + 1 + d));
      List.iter
        (fun (sk, n) ->
          Buffer.add_string base
            (Printf.sprintf " + (%d) * sc[%d] * ints[%d]" n sk (pos + 1 + d)))
        scals)
    parts;
  (* per-variable coefficient: sum of stride * integer factor over the
     site's dimensions; None when the site does not depend on it *)
  let coeff sel =
    let terms =
      List.concat
        (List.mapi
           (fun d p ->
             let n = sel p in
             if n = 0 then []
             else if n = 1 then [ Printf.sprintf "ints[%d]" (pos + 1 + d) ]
             else [ Printf.sprintf "(%d) * ints[%d]" n (pos + 1 + d) ])
           parts)
    in
    match terms with [] -> None | ts -> Some (String.concat " + " ts)
  in
  let coeffs =
    Array.init (max 1 env.rank) (fun d -> coeff (fun (_, l, _, _) -> l.(d)))
  in
  let rcoeff = coeff (fun (_, _, r, _) -> r) in
  Buffer.add_string env.site_binds
    (Printf.sprintf "    const double * restrict b%d = bufs[%d];\n" slot
       (k.nmem + slot));
  Buffer.add_string env.site_binds
    (Printf.sprintf "    const long b%d_b = %s;\n" slot (Buffer.contents base));
  (* chain loop-level partials through the outer dimensions; the
     innermost term is applied at the access itself so the fast variant
     can drop the multiply *)
  let inner_dim = env.rank - 1 in
  let pre = ref (Printf.sprintf "b%d_b" slot) in
  Array.iteri
    (fun d c ->
      match c with
      | None -> ()
      | Some c ->
          let cv = Printf.sprintf "b%d_c%d" slot d in
          Buffer.add_string env.site_binds
            (Printf.sprintf "    const long %s = %s;\n" cv c);
          if d < inner_dim then begin
            let pv = Printf.sprintf "b%d_p%d" slot d in
            env.level_binds.(d) :=
              Printf.sprintf "const long %s = %s + i%d * %s;" pv !pre d cv
              :: !(env.level_binds.(d));
            pre := pv
          end)
    coeffs;
  let has_red =
    match rcoeff with
    | None -> false
    | Some c ->
        Buffer.add_string env.site_binds
          (Printf.sprintf "    const long b%d_cr = %s;\n" slot c);
        env.red_binds :=
          Printf.sprintf "const long b%d_pr = %s + rv0 * b%d_cr;" slot !pre
            slot
          :: !(env.red_binds);
        true
  in
  (* dynamically-indexed site: the launch guard — min/max flat index
     over the full iteration space against the buffer length.  Skipped
     when an extent is 0 (the literal innermost one here, the runtime
     outer ones in C): the loops never run, so no access happens.  An
     extent-1 dimension contributes [c * 0] to the range. *)
  (if bounds = None && (not env.guarded) && inner_extent env <> 0 then begin
     let b = env.site_binds in
     let outer = List.init (max 0 (env.rank - 1)) (Printf.sprintf "n%d > 0") in
     Buffer.add_string b
       (Printf.sprintf "    %s{ long glo = b%d_b, ghi = b%d_b, gt;\n"
          (if outer = [] then ""
           else Printf.sprintf "if (%s) " (String.concat " && " outer))
          slot slot);
     Array.iteri
       (fun d c ->
         match c with
         | Some _ when d < env.rank - 1 ->
             Buffer.add_string b
               (Printf.sprintf
                  "      gt = b%d_c%d * (%s - 1); if (gt < 0) glo += gt; else \
                   ghi += gt;\n"
                  slot d env.exts.(d))
         | Some _ when d = env.rank - 1 && inner_extent env > 1 ->
             Buffer.add_string b
               (Printf.sprintf
                  "      gt = b%d_c%d * %d; if (gt < 0) glo += gt; else ghi \
                   += gt;\n"
                  slot d
                  (inner_extent env - 1))
         | _ -> ())
       coeffs;
     (match (has_red, env.red) with
     | true, Some (_, extent) when extent > 1 ->
         Buffer.add_string b
           (Printf.sprintf
              "      gt = b%d_cr * %d; if (gt < 0) glo += gt; else ghi += \
               gt;\n"
              slot (extent - 1))
     | _ -> ());
     Buffer.add_string b
       (Printf.sprintf "      if (glo < 0 || ghi >= bl[%d]) return 1;\n" slot);
     Buffer.add_string b "    }\n"
   end);
  let has_inner = inner_dim >= 0 && coeffs.(inner_dim) <> None in
  if has_inner then env.inner_sites := slot :: !(env.inner_sites);
  let basev = if has_red then Printf.sprintf "b%d_pr" slot else !pre in
  let idx ~inner ~fast =
    if has_inner then
      if fast then Printf.sprintf "%s + %s" basev inner
      else Printf.sprintf "%s + %s * b%d_c%d" basev inner slot inner_dim
    else basev
  in
  if env.guarded then
    (* per-access check against the buffer length; the statement
       expression scopes the temporary, so a render instantiated several
       times in one block stays legal *)
    fun ~inner ~fast ->
     Printf.sprintf
       "({ const long x%d_ = %s; if (x%d_ < 0 || x%d_ >= bl[%d]) return 1; \
        b%d[x%d_]; })"
       slot (idx ~inner ~fast) slot slot slot slot slot
  else fun ~inner ~fast -> Printf.sprintf "b%d[%s]" slot (idx ~inner ~fast)

let emit_read env (v : Graph.value) ixs : render =
  match Hashtbl.find_opt env.rows v.Graph.v_id with
  | Some row -> emit_row_read env v ixs row
  | None -> emit_site_read env v ixs

(* A condition index as a C long expression.  Dimension [rank-1] renders
   through the caller's [inner] text so conditions stay correct in every
   loop variant (fast/generic, blocked reduction lanes). *)
let cix env (ix : Codegen.ix) : inner:string -> string =
  let cst, loops, red, scals = affine env ix in
  fun ~inner ->
    let b = Buffer.create 32 in
    Buffer.add_string b (string_of_int cst);
    Array.iteri
      (fun d n ->
        if n <> 0 && d < env.rank then begin
          let v = if d = env.rank - 1 then inner else Printf.sprintf "i%d" d in
          Buffer.add_string b
            (if n = 1 then Printf.sprintf " + %s" v
             else Printf.sprintf " + (%d) * %s" n v)
        end)
      loops;
    if red <> 0 then
      Buffer.add_string b
        (if red = 1 then " + rv0" else Printf.sprintf " + (%d) * rv0" red);
    List.iter
      (fun (k, n) ->
        Buffer.add_string b
          (if n = 1 then Printf.sprintf " + sc[%d]" k
           else Printf.sprintf " + (%d) * sc[%d]" n k))
      scals;
    Printf.sprintf "(%s)" (Buffer.contents b)

let emit_cond env (c : Codegen.cond) : inner:string -> string =
  let cmp op a b =
    let ra = cix env a in
    let rb = cix env b in
    fun ~inner -> Printf.sprintf "(%s %s %s)" (ra ~inner) op (rb ~inner)
  in
  match c with
  | Ceq (a, b) -> cmp "==" a b
  | Cge (a, b) -> cmp ">=" a b
  | Clt (a, b) -> cmp "<" a b
  | Cmod (a, b, s) ->
      let ra = cix env a in
      let rb = cix env b in
      fun ~inner ->
        Printf.sprintf "(((%s - %s) %% %d) == 0)" (ra ~inner) (rb ~inner) s

let rec emit_expr env (e : Codegen.cexpr) : render =
  match e with
  | Clit f ->
      let s = float_lit f in
      fun ~inner:_ ~fast:_ -> s
  | Copaque what -> fail "opaque expression %s" what
  | Cread (v, ixs) -> emit_read env v ixs
  | Cunary (u, e) -> begin
      let s = emit_expr env e in
      let wrap fmt = fun ~inner ~fast -> Printf.sprintf fmt (s ~inner ~fast) in
      match u with
      | Scalar.Neg -> wrap "(- %s)"
      | Scalar.Abs -> wrap "fabs(%s)"
      | Scalar.Exp -> wrap "exp(%s)"
      | Scalar.Log -> wrap "log(%s)"
      | Scalar.Sqrt -> wrap "sqrt(%s)"
      | Scalar.Sigmoid -> wrap "(1.0 / (1.0 + exp(- %s)))"
      | Scalar.Tanh -> wrap "tanh(%s)"
      | Scalar.Relu -> wrap "functs_max(0.0, %s)"
    end
  | Cbinary (b, x, y) -> begin
      let sx = emit_expr env x in
      let sy = emit_expr env y in
      let wrap fmt =
       fun ~inner ~fast ->
        Printf.sprintf fmt (sx ~inner ~fast) (sy ~inner ~fast)
      in
      match b with
      | Scalar.Add -> wrap "(%s + %s)"
      | Scalar.Sub -> wrap "(%s - %s)"
      | Scalar.Mul -> wrap "(%s * %s)"
      | Scalar.Div -> wrap "(%s / %s)"
      | Scalar.Pow -> wrap "pow(%s, %s)"
      | Scalar.Max -> wrap "functs_max(%s, %s)"
      | Scalar.Min -> wrap "functs_min(%s, %s)"
      | Scalar.Lt -> wrap "((%s < %s) ? 1.0 : 0.0)"
      | Scalar.Gt -> wrap "((%s > %s) ? 1.0 : 0.0)"
      | Scalar.Eq -> wrap "(functs_equal(%s, %s) ? 1.0 : 0.0)"
    end
  | Ccond (conds, t, e) ->
      (* the C ternary short-circuits, so only the taken branch's reads
         execute *)
      let genv = { env with guarded = true } in
      let rc = List.map (emit_cond env) conds in
      let rt = emit_expr genv t in
      let re = emit_expr genv e in
      fun ~inner ~fast ->
        Printf.sprintf "(%s ? %s : %s)"
          (String.concat " && " (List.map (fun r -> r ~inner) rc))
          (rt ~inner ~fast) (re ~inner ~fast)
  | Cwhere (c, a, b) ->
      (* a call: all three operands are evaluated, like [Ops.where] *)
      let rc = emit_expr env c in
      let ra = emit_expr env a in
      let rb = emit_expr env b in
      fun ~inner ~fast ->
        Printf.sprintf "functs_where(%s, %s, %s)" (rc ~inner ~fast)
          (ra ~inner ~fast) (rb ~inner ~fast)
  | Creduce _ -> fail "non-root reduction"
  | Cmatmul _ -> fail "non-root matmul"

(* --- nests --- *)

(* Local rows live on the C stack: a statement whose row is wider than
   [max_row] doubles gets a nest of its own, and a nest takes no member
   whose row would carry its rows past [nest_row_budget] doubles. *)
let max_row = 4096
let nest_row_budget = 16384

(* A fused nest whose rows are all at most [tile_row] wide computes
   [tile] rows of each member at a time (rows [r<idx>[tile][extent]]),
   so the compiler can vectorise across rows as it does the loop nest of
   one statement; [tile] is a multiple of every vector width, so each
   row takes the same vector or scalar path it takes there. *)
let tile_row = 16
let tile = 16

(* A fast row loop at least [simd_row] wide (one 256-bit vector of
   doubles) is marked [omp simd], unless a read under a [Ccond] branch
   puts a per-access check's [return 1] in it, which may not leave an
   [omp simd] loop.  Without the pragma GCC kept yolact's 16-wide
   sigmoid rows scalar.  A narrower row fills no such vector, and
   forcing its loop to vectorise slowed the 2-wide box rows of ssd and
   yolov3, which GCC vectorises across the tile's rows instead. *)
let simd_row = 4

type member = {
  m_idx : int;  (* position in the kernel's statement list: row [r<idx>] *)
  m_stmt : Codegen.statement;  (* reads of renamed copies redirected *)
  m_shape : int array;
  mutable m_mem : bool;  (* writes memory: stored, or read from another nest *)
  mutable m_row : bool;  (* read by a later member of its nest *)
}

type nest = { fused : bool; members : member list }

(* Every read of an expression, with whether it sits under a [Ccond]
   branch. *)
let rec reads ~guarded acc = function
  | Cread (v, ixs) -> (v, ixs, guarded) :: acc
  | Clit _ | Copaque _ -> acc
  | Cmatmul (a, b) -> (b, [], guarded) :: (a, [], guarded) :: acc
  | Cunary (_, e) | Creduce (_, _, _, e) -> reads ~guarded acc e
  | Cbinary (_, a, b) -> reads ~guarded (reads ~guarded acc a) b
  | Cwhere (c, a, b) ->
      reads ~guarded (reads ~guarded (reads ~guarded acc c) a) b
  | Ccond (_, a, b) -> reads ~guarded:true (reads ~guarded:true acc a) b

let rec redirect alias e =
  match e with
  | Cread (v, ixs) -> (
      match Hashtbl.find_opt alias v.Graph.v_id with
      | Some src -> Cread (src, ixs)
      | None -> e)
  | Clit _ | Copaque _ -> e
  | Cmatmul (a, b) ->
      let via v = Option.value ~default:v (Hashtbl.find_opt alias v.Graph.v_id) in
      Cmatmul (via a, via b)
  | Cunary (u, x) -> Cunary (u, redirect alias x)
  | Cbinary (b, x, y) -> Cbinary (b, redirect alias x, redirect alias y)
  | Ccond (c, x, y) -> Ccond (c, redirect alias x, redirect alias y)
  | Cwhere (c, x, y) ->
      Cwhere (redirect alias c, redirect alias x, redirect alias y)
  | Creduce (kind, r, n, x) -> Creduce (kind, r, n, redirect alias x)

let identity_read ~rank = function
  | Cread (src, ixs)
    when List.length ixs = rank
         && List.for_all Fun.id
              (List.mapi (fun d ix -> ix = Ivar (Printf.sprintf "i%d" d)) ixs)
    ->
      Some src
  | _ -> None

let outer_extents shape = Array.sub shape 0 (max 0 (Array.length shape - 1))

(* Cut the kernel into nests (see the header): walk the statements in
   order, growing the open nest while each one fits it, and rename
   unstored identity copies of a member to that member. *)
let plan (kern : Codegen.kernel) ~shapes =
  let alias = Hashtbl.create 8 in
  let nests = ref [] and members = ref [] and width = ref 0 in
  let close () =
    if !members <> [] then
      nests := { fused = true; members = List.rev !members } :: !nests;
    members := [];
    width := 0
  in
  let member_of (v : Graph.value) =
    List.find_opt
      (fun m -> m.m_stmt.s_out.Graph.v_id = v.Graph.v_id)
      !members
  in
  List.iteri
    (fun idx (s : Codegen.statement) ->
      let shape = concrete_shape shapes s.s_out in
      let rank = Array.length shape in
      if rank <> s.s_rank then fail "rank mismatch for %s" (value_ref s.s_out);
      let s = { s with s_expr = redirect alias s.s_expr } in
      let m =
        { m_idx = idx; m_stmt = s; m_shape = shape; m_mem = s.s_store; m_row = false }
      in
      let row = if rank = 0 then 0 else shape.(rank - 1) in
      let map = match s.s_expr with Creduce _ | Cmatmul _ -> false | _ -> true in
      if not (map && rank >= 2 && row >= 1 && row <= max_row) then begin
        close ();
        nests := { fused = false; members = [ { m with m_mem = true } ] } :: !nests
      end
      else begin
        let fits =
          match !members with
          | [] -> true
          | m0 :: _ ->
              outer_extents m0.m_shape = outer_extents shape
              && !width + row <= nest_row_budget
              && List.for_all
                   (fun (v, ixs, guarded) ->
                     match member_of v with
                     | None -> true
                     | Some p ->
                         row_access ~shape ~row:p.m_shape.(rank - 1) ~guarded
                           ixs
                         <> None)
                   (reads ~guarded:false [] s.s_expr)
        in
        if not fits then close ();
        match identity_read ~rank s.s_expr with
        | Some src
          when (not s.s_store)
               && Option.fold ~none:false
                    ~some:(fun p -> p.m_shape = shape)
                    (member_of src) ->
            Hashtbl.replace alias s.s_out.Graph.v_id src
        | _ ->
            members := m :: !members;
            width := !width + row
      end)
    kern.k_stmts;
  close ();
  let nests = List.rev !nests in
  let home = Hashtbl.create 16 in
  List.iteri
    (fun ni n ->
      List.iter
        (fun m ->
          List.iter
            (fun ((v : Graph.value), _, _) ->
              match Hashtbl.find_opt home v.Graph.v_id with
              | Some (pn, p) when pn = ni -> p.m_row <- true
              | Some (_, p) -> p.m_mem <- true
              | None -> ())
            (reads ~guarded:false [] m.m_stmt.s_expr);
          Hashtbl.replace home m.m_stmt.s_out.Graph.v_id (ni, m))
        n.members)
    nests;
  nests

let case_label nest_idx (members : member list) =
  (if nest_idx = 0 then "  case -1: /* whole kernel */\n" else "")
  ^ Printf.sprintf "  case %d: { /* %s */\n" nest_idx
      (String.concat ", "
         (List.map
            (fun m ->
              let v = m.m_stmt.s_out in
              if v.Graph.v_name = "" then "tmp" else v.Graph.v_name)
            members))

(* A matmul nest: one call of the unit's GEMM ([gemm_kernel.h]) over
   row-major operands.  Its row count is the nest's outer extent; the
   reduction and column extents are literal.  A launch never splits it
   ([e_rows = 1]). *)
let emit_gemm k ~shapes ~buf ~next_mem nest_idx m a b =
  let shape = m.m_shape in
  let ashape = concrete_shape shapes a and bshape = concrete_shape shapes b in
  (match (shape, ashape, bshape) with
  | [| mo; no |], [| ma; ka |], [| kb; nb |]
    when mo = ma && no = nb && ka = kb ->
      ()
  | _ -> fail "matmul shapes of %s" (value_ref m.m_stmt.s_out));
  let kd = ashape.(1) and nd = shape.(1) in
  let live = Shape.numel shape > 0 && kd > 0 in
  let ext_pos = k.next_int in
  k.next_int <- ext_pos + 1;
  let site (v : Graph.value) dims =
    if
      Hashtbl.mem k.all_outs v.Graph.v_id
      && not (Hashtbl.mem k.computed v.Graph.v_id)
    then fail "forward read of %s" (value_ref v);
    let slot = k.nsites and pos = k.next_int in
    k.nsites <- slot + 1;
    k.next_int <- pos + 3;
    k.sites <-
      {
        e_value = v;
        e_slot = slot;
        e_rank = 2;
        e_nest = nest_idx;
        e_live = live;
        e_ints_pos = pos;
        e_bounds = Some (Array.map (fun d -> (0, d - 1)) dims);
        e_dense = true;
      }
      :: k.sites;
    Printf.sprintf "bufs[%d] + ints[%d]" (k.nmem + slot) pos
  in
  let pa = site a ashape in
  let pb = site b bshape in
  Hashtbl.replace k.computed m.m_stmt.s_out.Graph.v_id ();
  let j = !next_mem in
  incr next_mem;
  let opos = k.next_int in
  k.next_int <- opos + 1;
  k.gemm <-
    Some
      {
        g_a = k.nsites - 2;
        g_b = k.nsites - 1;
        g_k = kd;
        g_n = nd;
        g_m_pos = ext_pos;
      };
  Buffer.add_string buf (case_label nest_idx [ m ]);
  Buffer.add_string buf
    (Printf.sprintf
       "    const long n0 = ints[%d];\n\
       \    const long sl = nest < 0 ? 0 : lo, sh = nest < 0 ? n0 : hi;\n\
       \    if (sl == 0 && sh > 0)\n\
       \      functs_gemm(%s, %s, bufs[%d] + ints[%d], n0, %d, %d);\n\
       \  } if (nest >= 0) break;\n"
       ext_pos pa pb j opos kd nd);
  ( {
      e_ext_pos = ext_pos;
      e_ext = [| shape.(0) |];
      e_rows = 1;
      e_numel = Shape.numel shape;
    },
    [
      {
        e_out = m.m_stmt.s_out;
        e_store = m.m_stmt.s_store;
        e_shape = shape;
        e_out_pos = opos;
      };
    ] )

(* One switch case per nest.  A root [Creduce] becomes an accumulator
   loop with the interpreter's combine order ([acc + body] from 0,
   [Float.max acc body] from -inf), so results agree bitwise. *)
let rec emit_nest k ~shapes ~buf ~next_mem nest_idx (n : nest) =
  match n.members with
  | [ ({ m_stmt = { s_expr = Cmatmul (a, b); _ }; _ } as m) ] ->
      emit_gemm k ~shapes ~buf ~next_mem nest_idx m a b
  | _ -> emit_map_nest k ~buf ~next_mem nest_idx n

and emit_map_nest k ~buf ~next_mem nest_idx (n : nest) =
  let m0 = List.hd n.members in
  let rank = Array.length m0.m_shape in
  let nouter = max 0 (rank - 1) in
  (* the outer extents ride in ints, read once at nest entry *)
  let ext_pos = k.next_int in
  k.next_int <- ext_pos + nouter;
  let entry = Buffer.create 1024 in
  let rows = Hashtbl.create 8 in
  let tiled =
    n.fused && nouter >= 1
    && List.for_all (fun m -> m.m_shape.(rank - 1) <= tile_row) n.members
    && List.fold_left (fun w m -> w + m.m_shape.(rank - 1)) 0 n.members * tile
       <= nest_row_budget
  in
  (* the tiled dimension: the innermost outer one *)
  let td = nouter - 1 in
  let member m =
    let s = m.m_stmt and shape = m.m_shape in
    let exts =
      Array.init rank (fun d ->
          if d = rank - 1 then string_of_int shape.(d)
          else Printf.sprintf "n%d" d)
    in
    let env =
      {
        k;
        nest_idx;
        live = Shape.numel shape > 0;
        rank;
        shape;
        exts;
        red = None;
        guarded = false;
        site_binds = Buffer.create 256;
        level_binds = Array.init (max 1 rank) (fun _ -> ref []);
        red_binds = ref [];
        inner_sites = ref [];
        rows;
        tile_ix = (if tiled then Printf.sprintf "[i%d - t0]" td else "");
      }
    in
    let checked =
      List.exists (fun (_, _, g) -> g) (reads ~guarded:false [] s.s_expr)
    in
    let root =
      match s.s_expr with
      | Creduce (kind, rname, extent, body) ->
          if extent <= 0 then fail "unknown reduction extent for %s" rname;
          if not (ident_ok rname) then fail "bad reduction variable %S" rname;
          if index_dim ~rank rname <> None then
            fail "reduction variable %S shadows an output index" rname;
          if not (no_reduce body) then fail "non-root reduction";
          let render = emit_expr { env with red = Some (rname, extent) } body in
          let init, combine =
            match kind with
            | `Sum -> ("0.0", Printf.sprintf "%s + %s")
            | `Max -> ("(-1.0 / 0.0)", Printf.sprintf "functs_max(%s, %s)")
          in
          `Reduce (extent, render, init, combine)
      | e -> `Map (emit_expr env e)
    in
    Hashtbl.replace k.computed s.s_out.Graph.v_id ();
    Buffer.add_buffer entry env.site_binds;
    (* all innermost-dependent sites contiguous -> the fast variant's
       unit-stride accesses vectorise; both variants compute identical
       element orders *)
    let guard =
      String.concat " && "
        (List.rev_map
           (fun slot -> Printf.sprintf "b%d_c%d == 1" slot (rank - 1))
           !(env.inner_sites))
    in
    (* memory output [o<j>]: base, then dense strides from the extents
       (innermost is 1) *)
    let out =
      if not m.m_mem then None
      else begin
        let j = !next_mem in
        incr next_mem;
        let pos = k.next_int in
        k.next_int <- pos + 1;
        let add = Buffer.add_string entry in
        add (Printf.sprintf "    double * restrict o%d = bufs[%d];\n" j j);
        add (Printf.sprintf "    const long o%d_b = ints[%d];\n" j pos);
        for d = rank - 2 downto 0 do
          add
            (if d = rank - 2 then
               Printf.sprintf "    const long o%d_s%d = %s;\n" j d exts.(d + 1)
             else
               Printf.sprintf "    const long o%d_s%d = o%d_s%d * %s;\n" j d j
                 (d + 1) exts.(d + 1))
        done;
        Some
          ( j,
            {
              e_out = s.s_out;
              e_store = s.s_store;
              e_shape = shape;
              e_out_pos = pos;
            } )
      end
    in
    (* local row [r<idx>]: every unstored member, and a stored one that a
       later member reads *)
    let row = m.m_row || out = None in
    if row then begin
      Buffer.add_string entry
        (Printf.sprintf "    double r%d%s[%d];\n" m.m_idx
           (if tiled then Printf.sprintf "[%d]" tile else "")
           shape.(rank - 1));
      Hashtbl.replace rows s.s_out.Graph.v_id (m.m_idx, shape.(rank - 1))
    end;
    (* per outer level: site partials, then the output partial *)
    let level d =
      List.rev !(env.level_binds.(d))
      @ Option.fold ~none:[]
          ~some:(fun (j, _) ->
            let prev =
              if d = 0 then Printf.sprintf "o%d_b" j
              else Printf.sprintf "o%d_p%d" j (d - 1)
            in
            [
              Printf.sprintf "const long o%d_p%d = %s + i%d * o%d_s%d;" j d prev
                d j d;
            ])
          out
    in
    let j = match out with Some (j, _) -> j | None -> -1 in
    let opre =
      if nouter = 0 then Printf.sprintf "o%d_b" j
      else Printf.sprintf "o%d_p%d" j (nouter - 1)
    in
    let store iv value =
      match (out, row) with
      | Some _, false -> Printf.sprintf "o%d[%s + %s] = %s;" j opre iv value
      | None, _ -> Printf.sprintf "r%d%s[%s] = %s;" m.m_idx env.tile_ix iv value
      | Some _, true ->
          Printf.sprintf
            "{ const double v_ = %s; r%d%s[%s] = v_; o%d[%s + %s] = v_; }" value
            m.m_idx env.tile_ix iv j opre iv
    in
    let l = rank - 1 in
    let iv = Printf.sprintf "i%d" l in
    let lo = if l = 0 then "sl" else "0" in
    let hi = if l = 0 then "sh" else if l > 0 then exts.(l) else "1" in
    (* the innermost body at indentation [p] *)
    let body b ~p =
      let add = Buffer.add_string b in
      let red_hoists p =
        List.iter
          (fun line -> add (Printf.sprintf "%s%s\n" p line))
          (List.rev !(env.red_binds))
      in
      match root with
      | `Map render when rank = 0 ->
          add
            (Printf.sprintf "%sif (sl <= 0 && sh >= 1) { o%d[o%d_b] = %s; }\n" p
               j j
               (render ~inner:"0" ~fast:false))
      | `Map render ->
          let loop fast p =
            if fast && inner_extent env >= simd_row && not checked then
              add (Printf.sprintf "%s#pragma omp simd\n" p);
            add
              (Printf.sprintf "%sfor (long %s = %s; %s < %s; %s++) {\n" p iv lo
                 iv hi iv);
            add
              (Printf.sprintf "%s  %s\n" p (store iv (render ~inner:iv ~fast)));
            add (Printf.sprintf "%s}\n" p)
          in
          if guard = "" then loop true p
          else begin
            add (Printf.sprintf "%sif (%s) {\n" p guard);
            loop true (p ^ "  ");
            add (Printf.sprintf "%s} else {\n" p);
            loop false (p ^ "  ");
            add (Printf.sprintf "%s}\n" p)
          end
      | `Reduce (extent, render, init, combine) when rank = 0 ->
          add (Printf.sprintf "%sif (sl <= 0 && sh >= 1) {\n" p);
          add (Printf.sprintf "%s  double acc = %s;\n" p init);
          add
            (Printf.sprintf "%s  for (long rv0 = 0; rv0 < %d; rv0++) {\n" p
               extent);
          red_hoists (p ^ "    ");
          add
            (Printf.sprintf "%s    acc = %s;\n" p
               (combine "acc" (render ~inner:"0" ~fast:false)));
          add (Printf.sprintf "%s  }\n" p);
          add (Printf.sprintf "%s  o%d[o%d_b] = acc;\n" p j j);
          add (Printf.sprintf "%s}\n" p)
      | `Reduce (extent, render, init, combine) ->
          add (Printf.sprintf "%slong %s = %s;\n" p iv lo);
          if guard <> "" then add (Printf.sprintf "%sif (%s) {\n" p guard);
          let bp = if guard <> "" then p ^ "  " else p in
          add (Printf.sprintf "%sfor (; %s + 4 <= %s; %s += 4) {\n" bp iv hi iv);
          add
            (Printf.sprintf "%s  double a0 = %s, a1 = %s, a2 = %s, a3 = %s;\n" bp
               init init init init);
          add
            (Printf.sprintf "%s  for (long rv0 = 0; rv0 < %d; rv0++) {\n" bp
               extent);
          red_hoists (bp ^ "    ");
          for lane = 0 to 3 do
            let inner =
              if lane = 0 then iv else Printf.sprintf "(%s + %d)" iv lane
            in
            let a = Printf.sprintf "a%d" lane in
            add
              (Printf.sprintf "%s    %s = %s;\n" bp a
                 (combine a (render ~inner ~fast:true)))
          done;
          add (Printf.sprintf "%s  }\n" bp);
          for lane = 0 to 3 do
            let at = if lane = 0 then iv else Printf.sprintf "%s + %d" iv lane in
            add (Printf.sprintf "%s  o%d[%s + %s] = a%d;\n" bp j opre at lane)
          done;
          add (Printf.sprintf "%s}\n" bp);
          if guard <> "" then add (Printf.sprintf "%s}\n" p);
          (* scalar remainder, and the whole range when the guard fails *)
          add (Printf.sprintf "%sfor (; %s < %s; %s++) {\n" p iv hi iv);
          add (Printf.sprintf "%s  double acc = %s;\n" p init);
          add
            (Printf.sprintf "%s  for (long rv0 = 0; rv0 < %d; rv0++) {\n" p
               extent);
          red_hoists (p ^ "    ");
          add
            (Printf.sprintf "%s    acc = %s;\n" p
               (combine "acc" (render ~inner:iv ~fast:false)));
          add (Printf.sprintf "%s  }\n" p);
          add (Printf.sprintf "%s  o%d[%s + %s] = acc;\n" p j opre iv);
          add (Printf.sprintf "%s}\n" p)
    in
    (level, body, Option.map snd out)
  in
  let members = List.map member n.members in
  let add = Buffer.add_string buf in
  (* [nest = -1] is the whole-kernel entry: the driver makes one native
     call when no nest is split across pool tasks, and the cases run in
     order by switch fallthrough ([if (nest >= 0) break;] at each seam),
     each over its full extent ([sl, sh)).  The case comment names the
     members without id or shape, which differ between graphs that share
     the unit. *)
  add (case_label nest_idx n.members);
  for d = 0 to nouter - 1 do
    add (Printf.sprintf "    const long n%d = ints[%d];\n" d (ext_pos + d))
  done;
  add
    (Printf.sprintf
       "    const long sl = nest < 0 ? 0 : lo, sh = nest < 0 ? %s : hi;\n"
       (match rank with
       | 0 -> "1"
       | 1 -> string_of_int m0.m_shape.(0)
       | _ -> "n0"));
  Buffer.add_buffer buf entry;
  let pad d = String.make (4 + (2 * d)) ' ' in
  let lo d = if d = 0 then "sl" else "0" in
  let hi d = if d = 0 then "sh" else Printf.sprintf "n%d" d in
  let open_loop ~depth d from until =
    add
      (Printf.sprintf "%sfor (long i%d = %s; i%d < %s; i%d++) {\n" (pad depth) d
         from d until d)
  in
  let levels ~depth d =
    List.iter
      (fun (level, _, _) ->
        List.iter
          (fun line -> add (Printf.sprintf "%s%s\n" (pad (depth + 1)) line))
          (level d))
      members
  in
  let shared = if tiled then td else nouter in
  for d = 0 to shared - 1 do
    open_loop ~depth:d d (lo d) (hi d);
    levels ~depth:d d
  done;
  if tiled then begin
    (* each member computes rows [t0, t1) of dim [td] in turn *)
    add
      (Printf.sprintf "%sfor (long t0 = %s; t0 < %s; t0 += %d) {\n" (pad td)
         (lo td) (hi td) tile);
    add
      (Printf.sprintf "%s  const long t1 = t0 + %d < %s ? t0 + %d : %s;\n"
         (pad td) tile (hi td) tile (hi td));
    List.iter
      (fun (level, body, _) ->
        open_loop ~depth:(td + 1) td "t0" "t1";
        List.iter
          (fun line -> add (Printf.sprintf "%s%s\n" (pad (td + 2)) line))
          (level td);
        body buf ~p:(pad (td + 2));
        add (Printf.sprintf "%s}\n" (pad (td + 1))))
      members;
    add (Printf.sprintf "%s}\n" (pad td))
  end
  else List.iter (fun (_, body, _) -> body buf ~p:(pad nouter)) members;
  for d = shared - 1 downto 0 do
    add (Printf.sprintf "%s}\n" (pad d))
  done;
  add "  } if (nest >= 0) break;\n";
  ( {
      e_ext_pos = ext_pos;
      e_ext = outer_extents m0.m_shape;
      e_rows = (if rank = 0 then 1 else m0.m_shape.(0));
      e_numel =
        List.fold_left (fun acc m -> acc + Shape.numel m.m_shape) 0 n.members;
    },
    List.filter_map (fun (_, _, st) -> st) members )

let emit (kern : Codegen.kernel) ~shapes : (emitted, string) result =
  try
    let all_outs = Hashtbl.create 8 in
    List.iter
      (fun (s : Codegen.statement) ->
        Hashtbl.replace all_outs s.s_out.Graph.v_id ())
      kern.k_stmts;
    if Hashtbl.length all_outs <> List.length kern.k_stmts then
      fail "duplicate statement output";
    let nests = plan kern ~shapes in
    let k =
      {
        nmem =
          List.fold_left
            (fun acc n ->
              acc + List.length (List.filter (fun m -> m.m_mem) n.members))
            0 nests;
        free = Hashtbl.create 8;
        free_order = [];
        nsites = 0;
        next_int = 0;
        sites = [];
        all_outs;
        computed = Hashtbl.create 8;
        gemm = None;
      }
    in
    let body = Buffer.create 2048 in
    let next_mem = ref 0 in
    let emitted = List.mapi (emit_nest k ~shapes ~buf:body ~next_mem) nests in
    let scalar_pos = k.next_int in
    let nints = scalar_pos + Hashtbl.length k.free in
    let fn =
      Printf.sprintf
        "  const long *sc = ints + %d, *bl = ints + %d;\n\
        \  (void)sc; (void)bl;\n\
        \  switch (nest) {\n\
         %s  default: break;\n\
        \  }\n\
        \  return 0;\n"
        scalar_pos nints (Buffer.contents body)
    in
    Ok
      {
        e_group = kern.k_group;
        e_name = kern.k_name;
        e_fn = fn;
        e_sites = Array.of_list (List.rev k.sites);
        e_stmts = Array.of_list (List.concat_map snd emitted);
        e_nests = Array.of_list (List.map fst emitted);
        e_free = Array.of_list (List.rev k.free_order);
        e_scalar_pos = scalar_pos;
        e_nints = nints;
        e_gemm = (if List.length nests = 1 then k.gemm else None);
      }
  with Reject msg -> Error msg

(* --- loop kernels ---

   A [Sequential] loop whose body is made of emitted group kernels,
   views of loop-invariant values and row writes
   [immut::assign[select(dim=0)](carried, v, i)] runs as one C function:
   [t] is a C loop variable, each member kernel is called once per step
   with its own bufs/ints block (copied from the launch's at entry;
   the entries that name a carried value are re-pointed every step),
   and the row writes are direct row stores.  A carried value the body
   recomputes is double-buffered: steps read [cur] and write [nxt], and
   the two swap every step; after the last step [cur] is copied to the
   loop's output.  A row-written carried value is written in place (the
   scheduler hands in the buffer: the donated init, or a clone).  A
   matmul member whose weight is defined outside the loop packs it once
   at entry ([gemm_kernel.h]'s panels).  The text is shape-generic like
   a group kernel's: the step count, the carried sizes and every member
   extent come from [ints]. *)

type lref =
  | Lcur of int  (* a double-buffered carried value, as the step reads it *)
  | Lnext of int  (* the value that carried slot becomes, as written *)
  | Lscratch of int  (* a body value kept in scratch buffer [k] *)
  | Lfixed  (* bound once from outside the loop *)

type lmember = {
  lm_em : emitted;
  lm_fn : int;  (* the unit's index of the group kernel *)
  lm_buf0 : int;  (* first launch-bufs entry of its block *)
  lm_int0 : int;  (* first launch-ints entry of its block *)
  lm_refs : lref array;  (* per block bufs entry *)
  lm_packed : int option;  (* launch-bufs entry of its packed weight *)
}

type lcarry =
  | Ldouble of {
      d_param : Graph.value;
      d_next : Graph.value;
      d_shape : int array;
      d_buf : int;
          (* bufs: the step buffers at [d_buf] and [d_buf + 1], the
             output at [d_buf + 2] *)
      d_int : int;  (* ints: numel at [d_int], output offset after it *)
    }
  | Lrow of {
      r_shape : int array;
      r_buf : int;  (* bufs: the written buffer *)
      r_int : int;  (* ints: its offset at [r_int], row numel at [r_int + 1] *)
    }

type eloop = {
  l_node : int;  (* the loop node's id *)
  l_induction : string;  (* the step variable's scalar symbol *)
  l_fn : string;  (* body of the launch function *)
  l_members : lmember array;
  l_carries : lcarry array;
  l_scratch : (Graph.value * int array * int) array;
      (* body values a later step reads: value, shape, bufs entry *)
  l_packed_len : int array;  (* doubles per packed weight, in bufs order *)
  l_packed_buf0 : int;
  l_nbufs : int;
  l_nints : int;
}

let emit_loop (g : Graph.t) (node : Graph.node) ~plan ~shapes
    ~(groups : (int * int * emitted) list) : (eloop, string) result =
  try
    let body =
      match (node.Graph.n_op, node.n_blocks) with
      | Op.Loop, [ b ] -> b
      | _ -> fail "not a loop"
    in
    (match Fusion.loop_verdict plan node with
    | Loop_par.Sequential _ -> ()
    | _ -> fail "not a sequential loop");
    let params = Array.of_list body.Graph.b_params in
    let rets = Array.of_list body.b_returns in
    let nc = Array.length rets in
    if nc = 0 || Array.length params <> nc + 1 then fail "carried arity";
    let induction = params.(0) in
    let param_slot (v : Graph.value) =
      let found = ref (-1) in
      Array.iteri (fun j p -> if j > 0 && p == v then found := j - 1) params;
      !found
    in
    let nodes = body.b_nodes in
    let mark tbl (vs : Graph.value list) =
      List.iter (fun (v : Graph.value) -> Hashtbl.replace tbl v.v_id ()) vs
    in
    (* values the body defines, and which of them are loop-invariant
       (constants, and views the scheduler hoists before the first
       step) *)
    let defined = Hashtbl.create 64 and invariant = Hashtbl.create 16 in
    mark defined (Array.to_list params);
    List.iter (fun (n : Graph.node) -> mark defined n.n_outputs) nodes;
    let inv (v : Graph.value) =
      (not (Hashtbl.mem defined v.v_id)) || Hashtbl.mem invariant v.v_id
    in
    let group_of n =
      match Fusion.kernel_class_of plan n with
      | Fusion.Kernel gid -> Some gid
      | Fusion.No_cost -> None
    in
    let kernel gid = List.find_opt (fun (g', _, _) -> g' = gid) groups in
    let last_member = Hashtbl.create 8 in
    List.iter
      (fun n ->
        Option.iter
          (fun gid -> Hashtbl.replace last_member gid n.Graph.n_id)
          (group_of n))
      nodes;
    (* a view consumed only where group kernels fold it into their index
       expressions *)
    let rec folded (v : Graph.value) =
      List.for_all
        (function
          | Graph.Return _ -> false
          | Graph.Input (c, _) -> (
              match (group_of c, c.n_op) with
              | Some _, Op.Matmul -> false
              | Some _, _ -> true
              | None, Op.Access _ -> List.for_all folded c.n_outputs
              | None, _ -> false))
        (Graph.uses_in g v)
    in
    let single v = List.length (Graph.uses_in g v) = 1 in
    let steps = ref [] and rows = Hashtbl.create 4 in
    List.iter
      (fun (n : Graph.node) ->
        match (group_of n, n.n_op) with
        | None, Op.Constant _ -> mark invariant n.n_outputs
        | Some gid, _ ->
            if kernel gid = None then fail "group %d has no native kernel" gid;
            if Hashtbl.find last_member gid = n.n_id then
              steps := `Launch gid :: !steps
        | None, Op.Access _ ->
            if List.for_all inv n.n_inputs then mark invariant n.n_outputs
            else if not (List.for_all folded n.n_outputs) then
              fail "a view of a step value is read whole"
        | None, Op.Assign (Op.Select { dim = 0 }) -> (
            match (n.n_inputs, n.n_outputs) with
            | [ base; src; ix ], [ out ] when ix == induction ->
                let j = param_slot base in
                if j < 0 || rets.(j) != out || not (single base && single out)
                then fail "a row write that is not a carried value's update";
                let bshape = concrete_shape shapes base in
                if
                  Array.length bshape < 1
                  || Array.sub bshape 1 (Array.length bshape - 1)
                     <> concrete_shape shapes src
                then fail "row write of another shape";
                Hashtbl.replace rows j ();
                steps := `Row (j, src) :: !steps
            | _ -> fail "a row write indexed by anything but the step")
        | None, op -> fail "%s in the body" (Op.name op))
      nodes;
    let steps = List.rev !steps in
    (* scalar symbols a step defines, other than the step itself *)
    let step_scalars = Hashtbl.create 8 in
    List.iter
      (fun (n : Graph.node) ->
        List.iter
          (fun (v : Graph.value) ->
            if not (Hashtbl.mem invariant v.v_id) then
              Hashtbl.replace step_scalars (value_ref v) ())
          n.n_outputs)
      nodes;
    (* every other carried slot is double-buffered: its update value *)
    let next_of = Hashtbl.create 8 in
    Array.iteri
      (fun j (r : Graph.value) ->
        if not (Hashtbl.mem rows j) then begin
          if Hashtbl.mem next_of r.v_id then
            fail "one value updates two carried slots";
          (match Graph.defining_node r with
          | Some d when Hashtbl.mem defined r.v_id && group_of d <> None -> ()
          | _ -> fail "carried slot %d is not recomputed by a kernel" j);
          Hashtbl.replace next_of r.v_id j
        end)
      rets;
    let bufs = ref 0 and ints = ref 1 in
    let take r n =
      let x = !r in
      r := x + n;
      x
    in
    (* body values kept in scratch: value id -> (statement, index) *)
    let scratch = ref [] in
    let classify (v : Graph.value) =
      match param_slot v with
      | j when j >= 0 ->
          if Hashtbl.mem rows j then
            fail "the row-written %s is read" (value_ref v);
          Lcur j
      | _ -> (
          match Hashtbl.find_opt next_of v.v_id with
          | Some j -> Lnext j
          | None -> (
              match List.assoc_opt v.v_id !scratch with
              | Some (_, k) -> Lscratch k
              | None ->
                  if inv v then Lfixed
                  else fail "%s is read before a kernel stores it" (value_ref v)))
    in
    let member gid =
      let _, fn, em = Option.get (kernel gid) in
      let nmem = Array.length em.e_stmts in
      (* outputs first: a site of the same kernel reads them *)
      Array.iter
        (fun (st : estmt) ->
          if st.e_store && not (Hashtbl.mem next_of st.e_out.v_id) then
            scratch := (st.e_out.v_id, (st, List.length !scratch)) :: !scratch)
        em.e_stmts;
      let refs =
        Array.init (nbufs em) (fun e ->
            if e >= nmem then classify em.e_sites.(e - nmem).e_value
            else if em.e_stmts.(e).e_store then classify em.e_stmts.(e).e_out
            else Lfixed)
      in
      Array.iter
        (fun name ->
          if Hashtbl.mem step_scalars name then
            fail "index %s is computed in the body" name)
        em.e_free;
      let buf0 = take bufs (nbufs em) in
      let int0 = take ints (max 1 (em.e_nints + Array.length em.e_sites)) in
      ( gid,
        {
          lm_em = em;
          lm_fn = fn;
          lm_buf0 = buf0;
          lm_int0 = int0;
          lm_refs = refs;
          lm_packed = None;
        } )
    in
    let members =
      List.filter_map
        (function `Row _ -> None | `Launch gid -> Some (member gid))
        steps
    in
    let carries =
      Array.mapi
        (fun j (r : Graph.value) ->
          let param = params.(j + 1) in
          let shape = concrete_shape shapes param in
          if Hashtbl.mem rows j then
            Lrow { r_shape = shape; r_buf = take bufs 1; r_int = take ints 2 }
          else begin
            if concrete_shape shapes r <> shape then
              fail "carried slot %d changes shape" j;
            Ldouble
              {
                d_param = param;
                d_next = r;
                d_shape = shape;
                d_buf = take bufs 3;
                d_int = take ints 2;
              }
          end)
        rets
    in
    let scratch =
      Array.map
        (fun (st : estmt) -> (st.e_out, st.e_shape, take bufs 1))
        (Array.of_list (List.rev_map (fun (_, (st, _)) -> st) !scratch))
    in
    (* packed weights: a matmul whose right operand is bound once *)
    let packed = ref [] in
    let packs m =
      match m.lm_em.e_gemm with
      | Some gm when m.lm_refs.(Array.length m.lm_em.e_stmts + gm.g_b) = Lfixed
        ->
          packed := ((gm.g_n - (gm.g_n mod 16)) * gm.g_k) :: !packed;
          true
      | _ -> false
    in
    let packing = List.map (fun (gid, m) -> (gid, m, packs m)) members in
    let packed_buf0 = take bufs (List.length !packed) in
    let next_pack = ref packed_buf0 in
    let members =
      Array.of_list
        (List.map
           (fun (gid, m, p) ->
             if not p then (gid, m)
             else begin
               incr next_pack;
               (gid, { m with lm_packed = Some (!next_pack - 1) })
             end)
           packing)
    in
    (* --- text --- *)
    let b = Buffer.create 4096 in
    let add fmt = Printf.bprintf b fmt in
    add "  (void)nest; (void)lo; (void)hi;\n";
    add "  const long T = ints[0];\n";
    Array.iteri
      (fun j -> function
        | Ldouble d ->
            add "  double *ca%d = bufs[%d], *cb%d = bufs[%d];\n" j d.d_buf j
              (d.d_buf + 1)
        | Lrow r ->
            add "  double *rw%d = bufs[%d] + ints[%d];\n" j r.r_buf r.r_int;
            add "  const long rn%d = ints[%d];\n" j (r.r_int + 1))
      carries;
    Array.iteri (fun k (_, _, e) -> add "  double *s%d = bufs[%d];\n" k e) scratch;
    let ptr_of = function
      | Lcur j -> Printf.sprintf "cur%d" j
      | Lnext j -> Printf.sprintf "nxt%d" j
      | Lscratch k -> Printf.sprintf "s%d" k
      | Lfixed -> fail "a row write from outside the loop"
    in
    let blk k e = Printf.sprintf "m%db[%d]" k e in
    let iblk k e = Printf.sprintf "m%di[%d]" k e in
    (* a matmul member's operand pointers, then its output and extents *)
    let gemm_args k m (gm : egemm) =
      let nmem = Array.length m.lm_em.e_stmts in
      let operand s =
        Printf.sprintf "%s + %s" (blk k (nmem + s))
          (iblk k m.lm_em.e_sites.(s).e_ints_pos)
      in
      ( operand gm.g_a,
        operand gm.g_b,
        Printf.sprintf "%s + %s, %s, %d, %d" (blk k 0)
          (iblk k m.lm_em.e_stmts.(0).e_out_pos)
          (iblk k gm.g_m_pos) gm.g_k gm.g_n )
    in
    Array.iteri
      (fun k (gid, m) ->
        let nb = nbufs m.lm_em in
        let ni = max 1 (m.lm_em.e_nints + Array.length m.lm_em.e_sites) in
        add "  /* group %d */\n" gid;
        add "  double *m%db[%d]; long m%di[%d];\n" k nb k ni;
        add "  for (long e = 0; e < %d; e++) m%db[e] = bufs[%d + e];\n" nb k
          m.lm_buf0;
        add "  for (long e = 0; e < %d; e++) m%di[e] = ints[%d + e];\n" ni k
          m.lm_int0;
        match (m.lm_em.e_gemm, m.lm_packed) with
        | Some gm, Some pb ->
            let _, bp, _ = gemm_args k m gm in
            add "  double *pk%d = bufs[%d];\n" k pb;
            add "  if (functs_gemm_packs(%s))\n" (iblk k gm.g_m_pos);
            add "    functs_gemm_pack(%s, pk%d, %d, %d);\n" bp k gm.g_k gm.g_n
        | _ -> ())
      members;
    add "  for (long t = 0; t < T; t++) {\n";
    Array.iteri
      (fun j -> function
        | Ldouble _ ->
            add "    double *cur%d = (t & 1) ? cb%d : ca%d;\n" j j j;
            add "    double *nxt%d = (t & 1) ? ca%d : cb%d;\n" j j j
        | Lrow _ -> ())
      carries;
    let launched = ref 0 in
    List.iter
      (function
        | `Launch _ ->
            let k = !launched in
            incr launched;
            let _, m = members.(k) in
            Array.iteri
              (fun e r ->
                match r with
                | Lcur _ | Lnext _ -> add "    %s = %s;\n" (blk k e) (ptr_of r)
                | Lscratch _ | Lfixed -> ())
              m.lm_refs;
            Array.iteri
              (fun q name ->
                if name = value_ref induction then
                  add "    %s = t;\n" (iblk k (m.lm_em.e_scalar_pos + q)))
              m.lm_em.e_free;
            (match (m.lm_em.e_gemm, m.lm_packed) with
            | Some gm, Some _ ->
                let a, bp, rest = gemm_args k m gm in
                add "    functs_gemm_packed(%s, %s, pk%d, %s);\n" a bp k rest
            | Some gm, None ->
                let a, bp, rest = gemm_args k m gm in
                add "    functs_gemm(%s, %s, %s);\n" a bp rest
            | None, _ ->
                add "    if (functs_cjit_k%d(m%db, m%di, -1, 0, 0) != 0)\n" m.lm_fn
                  k k;
                add "      return 1;\n")
        | `Row (j, src) ->
            add "    { const double *src = %s; double *dst = rw%d + t * rn%d;\n"
              (ptr_of (classify src)) j j;
            add "      for (long e = 0; e < rn%d; e++) dst[e] = src[e]; }\n" j)
      steps;
    add "  }\n";
    Array.iteri
      (fun j -> function
        | Ldouble d ->
            add "  { const double *src = (T & 1) ? cb%d : ca%d;\n" j j;
            add "    double *dst = bufs[%d] + ints[%d];\n" (d.d_buf + 2)
              (d.d_int + 1);
            add "    for (long e = 0; e < ints[%d]; e++) dst[e] = src[e]; }\n"
              d.d_int
        | Lrow _ -> ())
      carries;
    add "  return 0;\n";
    Ok
      {
        l_node = node.n_id;
        l_induction = value_ref induction;
        l_fn = Buffer.contents b;
        l_members = Array.map snd members;
        l_carries = carries;
        l_scratch = scratch;
        l_packed_len = Array.of_list (List.rev !packed);
        l_packed_buf0 = packed_buf0;
        l_nbufs = !bufs;
        l_nints = !ints;
      }
  with Reject msg -> Error msg
