open Functs_ir
open Functs_tensor
open Functs_core
open Codegen

(* Lowers one fused kernel ([Codegen.kernel]) to a C function behind the
   launch ABI

     long k(double **bufs, const long *ints, long stmt, long lo, long hi)

   and, in the same walk, computes the launch layout the driver binds
   against:

     bufs : statement outputs, then one buffer per read site
     ints : per statement its outer extents, per site offset + strides
            and per statement the output offset (in discovery order),
            then the free scalars, then one buffer length per site

   Per statement the function runs a flat nested loop over the output
   shape, with [lo, hi) splitting the outermost dimension.  The unit is
   standalone C over <math.h> and is compiled with [-ffp-contract=off],
   so every emitted operation maps to exactly the IEEE operation the
   interpreter performs (the same discipline as [gemm_stubs.c]).

   Shape-generic text.  Only two kinds of extent are literal: each
   statement's innermost extent (its output stride is 1), so the fast
   variant keeps a constant trip count and vectorises, and reduction
   extents.  Every outer extent is an [ints] entry read once at
   statement entry ([n0], [n1], ...); the outer loop bounds, [sh] for
   the whole-kernel entry, the dense output strides ([os<d>]) and the
   launch guard's extent terms are all computed from them.  Nothing else
   shape-dependent reaches the text (case comments name the value
   without id or shape), so the artifact digest keys on structure plus
   those literals: a workload's serving buckets render the same unit and
   compile once.  The launch layout ([e_shape], [e_bounds]) stays
   concrete per emission, and the driver fills the extents from it.

   The emitter is the one acceptance check for native kernels: it
   rejects a [Copaque] expression, an unknown shape or reduction extent,
   an index variable outside the identifier discipline, a reduction
   below a statement's root and a forward read, and the group then runs
   node by node.

   The index grammar ([Codegen.ix]) is purely affine, so every site
   address decomposes into a hoisted base (offset plus constant and
   free-scalar parts) plus one integer coefficient per loop variable,
   all computed once per statement from [ints].  The innermost loop is
   emitted twice behind a runtime guard on the innermost coefficients:
   when every innermost-dependent site has stride 1 the fast variant
   indexes [b[p + i]] — contiguous, so GCC/Clang auto-vectorise it — and
   otherwise a generic [b[p + i*c]] variant runs.  Both orders are
   element-identical, so the guard never changes results.  Root
   reductions additionally block the innermost output dimension by 4
   with independent accumulators: each output element still combines its
   reduction terms in ascending order (bitwise identical to the scalar
   loop), but the four chains break the serial dependence and
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
   they get a per-access range check instead.  The driver maps a nonzero
   status to [Jit.Fallback].

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
  e_slot : int;  (* read-site index; bufs index is nstmts + slot *)
  e_rank : int;  (* number of index expressions *)
  e_stmt : int;  (* owning statement (bounds are skipped when it is empty) *)
  e_ints_pos : int;  (* ints position of [offset; strides.(0..rank-1)] *)
  e_bounds : (int * int) array option;
      (* per-dimension inclusive index range when statically known;
         [None] means the generated code checks the site itself *)
}

type estmt = {
  e_out : Graph.value;
  e_store : bool;
  e_shape : int array;
  e_out_pos : int;  (* ints position of the output offset *)
  e_ext_pos : int;  (* ints position of the extents of dims 0..rank-2 *)
}

type emitted = {
  e_group : int;
  e_name : string;
  e_fn : string;
      (* body of the launch function — one switch case per statement,
         returning 0 or a nonzero guard status *)
  e_sites : esite array;
  e_stmts : estmt array;
  e_free : string array;  (* free scalar symbols, in ints-tail order *)
  e_scalar_pos : int;  (* ints position of the first free scalar *)
  e_nints : int;  (* buffer lengths ride at [e_nints + slot] *)
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
  | Creduce _ -> false
  | Cread _ | Clit _ | Copaque _ -> true
  | Cunary (_, e) -> no_reduce e
  | Cbinary (_, a, b) | Ccond (_, a, b) -> no_reduce a && no_reduce b

let concrete_shape shapes (v : Graph.value) =
  match Shape_infer.shape_of shapes v with
  | Some dims
    when Array.for_all
           (function Shape_infer.Known _ -> true | Shape_infer.Unknown -> false)
           dims ->
      Array.map
        (function Shape_infer.Known n -> n | Shape_infer.Unknown -> 0)
        dims
  | _ -> fail "unknown shape for %s" (value_ref v)

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
  nstmts : int;
  free : (string, int) Hashtbl.t;  (* scalar symbol -> ints-tail index *)
  mutable free_order : string list;  (* reversed discovery order *)
  mutable nsites : int;
  mutable next_int : int;
  mutable sites : esite list;  (* reversed *)
  all_outs : (int, unit) Hashtbl.t;
  computed : (int, unit) Hashtbl.t;
}

type env = {
  k : kstate;
  stmt_idx : int;
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

let emit_read env (v : Graph.value) ixs : render =
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
      e_stmt = env.stmt_idx;
      e_ints_pos = pos;
      e_bounds = bounds;
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
       (k.nstmts + slot));
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
  | Creduce _ -> fail "non-root reduction"

(* One switch case per statement.  The root [Creduce] becomes an
   accumulator loop with the interpreter's combine order
   ([acc + body] from 0, [Float.max acc body] from -inf), so results
   agree bitwise. *)
let emit_stmt k ~buf ~shapes stmt_idx (s : Codegen.statement) =
  let shape = concrete_shape shapes s.s_out in
  let rank = Array.length shape in
  if rank <> s.s_rank then fail "rank mismatch for %s" (value_ref s.s_out);
  (* the outer extents ride in ints, read once at statement entry *)
  let ext_pos = k.next_int in
  k.next_int <- ext_pos + max 0 (rank - 1);
  let exts =
    Array.init rank (fun d ->
        if d = rank - 1 then string_of_int shape.(d)
        else Printf.sprintf "n%d" d)
  in
  let env =
    {
      k;
      stmt_idx;
      rank;
      shape;
      exts;
      red = None;
      guarded = false;
      site_binds = Buffer.create 256;
      level_binds = Array.init (max 1 rank) (fun _ -> ref []);
      red_binds = ref [];
      inner_sites = ref [];
    }
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
  let out_pos = k.next_int in
  k.next_int <- out_pos + 1;
  let add = Buffer.add_string buf in
  (* [stmt = -1] is the whole-kernel entry: the driver makes one native
     call when no statement is split across pool tasks, and the cases
     run in order by switch fallthrough ([if (stmt >= 0) break;] at each
     seam), each over its full extent ([sl, sh)).  The case comment names
     the value without its id or shape, which differ between graphs that
     share the unit. *)
  if stmt_idx = 0 then add "  case -1: /* whole kernel */\n";
  add
    (Printf.sprintf "  case %d: { /* %s */\n" stmt_idx
       (if s.s_out.Graph.v_name = "" then "tmp" else s.s_out.Graph.v_name));
  for d = 0 to rank - 2 do
    add (Printf.sprintf "    const long n%d = ints[%d];\n" d (ext_pos + d))
  done;
  add
    (Printf.sprintf
       "    const long sl = stmt < 0 ? 0 : lo, sh = stmt < 0 ? %s : hi;\n"
       (if rank = 0 then "1" else exts.(0)));
  add (Buffer.contents env.site_binds);
  add (Printf.sprintf "    double * restrict o = bufs[%d];\n" stmt_idx);
  add (Printf.sprintf "    const long ob = ints[%d];\n" out_pos);
  (* dense output strides from the extents (innermost is 1) *)
  for d = rank - 2 downto 0 do
    add
      (if d = rank - 2 then
         Printf.sprintf "    const long os%d = %s;\n" d exts.(d + 1)
       else
         Printf.sprintf "    const long os%d = os%d * %s;\n" d (d + 1)
           exts.(d + 1))
  done;
  let lo_of d = if d = 0 then "sl" else "0" in
  let hi_of d = if d = 0 then "sh" else exts.(d) in
  let pad d = String.make (4 + (2 * d)) ' ' in
  let opre = ref "ob" in
  for d = 0 to rank - 2 do
    add
      (Printf.sprintf "%sfor (long i%d = %s; i%d < %s; i%d++) {\n" (pad d) d
         (lo_of d) d (hi_of d) d);
    List.iter
      (fun line -> add (Printf.sprintf "%s%s\n" (pad (d + 1)) line))
      (List.rev !(env.level_binds.(d)));
    let pv = Printf.sprintf "o_p%d" d in
    add
      (Printf.sprintf "%sconst long %s = %s + i%d * os%d;\n" (pad (d + 1)) pv
         !opre d d);
    opre := pv
  done;
  (* all innermost-dependent sites contiguous -> the fast variant's
     unit-stride accesses vectorise; both variants compute identical
     element orders *)
  let guard =
    String.concat " && "
      (List.rev_map
         (fun slot -> Printf.sprintf "b%d_c%d == 1" slot (rank - 1))
         !(env.inner_sites))
  in
  let red_hoists p =
    List.iter
      (fun line -> add (Printf.sprintf "%s%s\n" p line))
      (List.rev !(env.red_binds))
  in
  (match root with
  | `Map render when rank = 0 ->
      add
        (Printf.sprintf "    if (sl <= 0 && sh >= 1) { o[ob] = %s; }\n"
           (render ~inner:"0" ~fast:false))
  | `Map render ->
      let l = rank - 1 in
      let iv = Printf.sprintf "i%d" l in
      let loop fast p =
        add
          (Printf.sprintf "%sfor (long %s = %s; %s < %s; %s++) {\n" p iv
             (lo_of l) iv (hi_of l) iv);
        add
          (Printf.sprintf "%s  o[%s + %s] = %s;\n" p !opre iv
             (render ~inner:iv ~fast));
        add (Printf.sprintf "%s}\n" p)
      in
      if guard = "" then loop true (pad l)
      else begin
        add (Printf.sprintf "%sif (%s) {\n" (pad l) guard);
        loop true (pad (l + 1));
        add (Printf.sprintf "%s} else {\n" (pad l));
        loop false (pad (l + 1));
        add (Printf.sprintf "%s}\n" (pad l))
      end
  | `Reduce (extent, render, init, combine) when rank = 0 ->
      add "    if (sl <= 0 && sh >= 1) {\n";
      add (Printf.sprintf "      double acc = %s;\n" init);
      add (Printf.sprintf "      for (long rv0 = 0; rv0 < %d; rv0++) {\n" extent);
      red_hoists "        ";
      add
        (Printf.sprintf "        acc = %s;\n"
           (combine "acc" (render ~inner:"0" ~fast:false)));
      add "      }\n";
      add "      o[ob] = acc;\n";
      add "    }\n"
  | `Reduce (extent, render, init, combine) ->
      let l = rank - 1 in
      let iv = Printf.sprintf "i%d" l in
      let jhi = hi_of l in
      add (Printf.sprintf "%slong %s = %s;\n" (pad l) iv (lo_of l));
      if guard <> "" then add (Printf.sprintf "%sif (%s) {\n" (pad l) guard);
      let bp = if guard <> "" then pad (l + 1) else pad l in
      add (Printf.sprintf "%sfor (; %s + 4 <= %s; %s += 4) {\n" bp iv jhi iv);
      add
        (Printf.sprintf "%s  double a0 = %s, a1 = %s, a2 = %s, a3 = %s;\n" bp
           init init init init);
      add (Printf.sprintf "%s  for (long rv0 = 0; rv0 < %d; rv0++) {\n" bp extent);
      red_hoists (bp ^ "    ");
      for j = 0 to 3 do
        let inner = if j = 0 then iv else Printf.sprintf "(%s + %d)" iv j in
        let a = Printf.sprintf "a%d" j in
        add
          (Printf.sprintf "%s    %s = %s;\n" bp a
             (combine a (render ~inner ~fast:true)))
      done;
      add (Printf.sprintf "%s  }\n" bp);
      for j = 0 to 3 do
        let at = if j = 0 then iv else Printf.sprintf "%s + %d" iv j in
        add (Printf.sprintf "%s  o[%s + %s] = a%d;\n" bp !opre at j)
      done;
      add (Printf.sprintf "%s}\n" bp);
      if guard <> "" then add (Printf.sprintf "%s}\n" (pad l));
      (* scalar remainder, and the whole range when the guard fails *)
      add (Printf.sprintf "%sfor (; %s < %s; %s++) {\n" (pad l) iv jhi iv);
      add (Printf.sprintf "%s  double acc = %s;\n" (pad l) init);
      add
        (Printf.sprintf "%s  for (long rv0 = 0; rv0 < %d; rv0++) {\n" (pad l)
           extent);
      red_hoists (pad l ^ "    ");
      add
        (Printf.sprintf "%s    acc = %s;\n" (pad l)
           (combine "acc" (render ~inner:iv ~fast:false)));
      add (Printf.sprintf "%s  }\n" (pad l));
      add (Printf.sprintf "%s  o[%s + %s] = acc;\n" (pad l) !opre iv);
      add (Printf.sprintf "%s}\n" (pad l)));
  for d = rank - 2 downto 0 do
    add (Printf.sprintf "%s}\n" (pad d))
  done;
  add "  } if (stmt >= 0) break;\n";
  {
    e_out = s.s_out;
    e_store = s.s_store;
    e_shape = shape;
    e_out_pos = out_pos;
    e_ext_pos = ext_pos;
  }

let emit (kern : Codegen.kernel) ~shapes : (emitted, string) result =
  try
    let k =
      {
        nstmts = List.length kern.k_stmts;
        free = Hashtbl.create 8;
        free_order = [];
        nsites = 0;
        next_int = 0;
        sites = [];
        all_outs = Hashtbl.create 8;
        computed = Hashtbl.create 8;
      }
    in
    List.iter
      (fun (s : Codegen.statement) ->
        Hashtbl.replace k.all_outs s.s_out.Graph.v_id ())
      kern.k_stmts;
    if Hashtbl.length k.all_outs <> k.nstmts then
      fail "duplicate statement output";
    let body = Buffer.create 2048 in
    let stmts = List.mapi (emit_stmt k ~buf:body ~shapes) kern.k_stmts in
    let scalar_pos = k.next_int in
    let nints = scalar_pos + Hashtbl.length k.free in
    let fn =
      Printf.sprintf
        "  const long *sc = ints + %d, *bl = ints + %d;\n\
        \  (void)sc; (void)bl;\n\
        \  switch (stmt) {\n\
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
        e_stmts = Array.of_list stmts;
        e_free = Array.of_list (List.rev k.free_order);
        e_scalar_pos = scalar_pos;
        e_nints = nints;
      }
  with Reject msg -> Error msg
