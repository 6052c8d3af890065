/* Native inner kernel for Fastops.matmul2d_into.
 *
 * Row-major GEMM over OCaml float arrays (unboxed double payloads).
 * Each output element o[i,j] accumulates its k terms in ascending-l
 * order, exactly like the reference interpreter's per-element sum, so
 * results are bitwise-identical; the l-loop is unrolled by four with
 * the partial sums added *sequentially* (never re-associated into
 * independent accumulators), which keeps the reference order while
 * giving the compiler a unit-stride j-vectorizable body.
 *
 * The l-dimension is processed in panels of 8 rows of [b] (32 KB at
 * n = 512): within a panel every row of the output is updated before
 * moving on, so the panel of [b] stays L1-resident and is streamed
 * from L2 once per call instead of once per output row.  Panels run in
 * ascending l and each o[i,j] is accumulated incrementally across
 * panels, so the per-element order is still exactly l-ascending.
 *
 * Compiled with -ffp-contract=off (see lib/exec/dune) so mul+add pairs
 * are never contracted into FMAs, which would change rounding.  On
 * x86-64, target_clones lets the loader pick an AVX-512/AVX2 clone at
 * run time without baking -march into the build.
 */
#include <caml/mlvalues.h>

#define PANEL 8

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
static void gemm(const double *restrict a, const double *restrict b,
                 double *restrict o, long m, long k, long n)
{
  for (long i = 0; i < m; i++) {
    double *oi = o + i * n;
    for (long j = 0; j < n; j++) oi[j] = 0.0;
  }
  for (long l0 = 0; l0 < k; l0 += PANEL) {
    const long lhi = (l0 + PANEL <= k) ? l0 + PANEL : k;
    for (long i = 0; i < m; i++) {
      const double *ai = a + i * k;
      double *oi = o + i * n;
      long l = l0;
      for (; l + 4 <= lhi; l += 4) {
        const double a0 = ai[l], a1 = ai[l + 1], a2 = ai[l + 2],
                     a3 = ai[l + 3];
        const double *b0 = b + l * n;
        const double *b1 = b0 + n, *b2 = b1 + n, *b3 = b2 + n;
        for (long j = 0; j < n; j++)
          oi[j] = (((oi[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j])
                  + a3 * b3[j];
      }
      for (; l < lhi; l++) {
        const double al = ai[l];
        const double *bl = b + l * n;
        for (long j = 0; j < n; j++) oi[j] += al * bl[j];
      }
    }
  }
}

CAMLprim value functs_gemm(value va, value vao, value vb, value vbo,
                           value vo, value voo, value vm, value vk,
                           value vn)
{
  gemm((const double *)va + Long_val(vao), (const double *)vb + Long_val(vbo),
       (double *)vo + Long_val(voo), Long_val(vm), Long_val(vk),
       Long_val(vn));
  return Val_unit;
}

CAMLprim value functs_gemm_bytecode(value *argv, int argn)
{
  (void)argn;
  return functs_gemm(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                     argv[6], argv[7], argv[8]);
}

/* --- strided elementwise maps ---
 *
 * Leaf loops of Fastops' strided engine.  The OCaml planner reduces an
 * elementwise op over arbitrary views to [rows] x [n] iterations: every
 * operand, destination included, advances by its own element step
 * within a row and by its own row stride between rows (a step or row
 * stride of 0 broadcasts).  Dims the planner could not merge into those
 * two are looped in OCaml around one call each.
 *
 * Each case applies exactly the operation the OCaml reference applies —
 * the same libm calls (exp, log, tanh, pow compile to the identical
 * symbols Float.exp &c. call) and the same IEEE primitives — so results
 * are bitwise-identical; the win is dropping the per-element closure
 * dispatch, float boxing and bounds checks.  Operators whose OCaml
 * semantics do not map one-to-one onto C (Float.max/min/equal have their
 * own NaN and signed-zero rules) are NOT given codes here and stay on
 * the OCaml path.
 *
 * Codes follow Scalar.unary / Scalar.binary constructor order; U_COPY
 * (a copy, or a fill when the source step is 0) is the engine's own. */
#include <math.h>

#define U_NEG 0
#define U_ABS 1
#define U_EXP 2
#define U_LOG 3
#define U_SQRT 4
#define U_SIGMOID 5
#define U_TANH 6
#define U_RELU 7
#define U_COPY 8

/* The contiguous and broadcast-source cases get their own loops so the
 * compiler can vectorize them; the general case covers any steps. */
#define UN_LOOP(expr)                                                       \
  do {                                                                      \
    if (os == 1 && as == 1)                                                 \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[i];                                              \
        o[i] = (expr);                                                      \
      }                                                                     \
    else if (os == 1 && as == 0) {                                          \
      const double x = a[0];                                                \
      const double v = (expr);                                              \
      for (long i = 0; i < n; i++) o[i] = v;                                \
    } else                                                                  \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[i * as];                                         \
        o[i * os] = (expr);                                                 \
      }                                                                     \
  } while (0)

CAMLprim value functs_unary_map(value vkind, value va, value vao, value vas,
                                value var, value vo, value voo, value vos,
                                value vor, value vrows, value vn)
{
  const double *ab = (const double *)va + Long_val(vao);
  double *ob = (double *)vo + Long_val(voo);
  const long as = Long_val(vas), ar = Long_val(var);
  const long os = Long_val(vos), orow = Long_val(vor);
  const long rows = Long_val(vrows), n = Long_val(vn);
  const long kind = Long_val(vkind);
  for (long r = 0; r < rows; r++) {
    const double *a = ab + r * ar;
    double *o = ob + r * orow;
    switch (kind) {
    case U_NEG: UN_LOOP(-x); break;
    case U_ABS: UN_LOOP(fabs(x)); break;
    case U_EXP: UN_LOOP(exp(x)); break;
    case U_LOG: UN_LOOP(log(x)); break;
    case U_SQRT: UN_LOOP(sqrt(x)); break;
    case U_SIGMOID: UN_LOOP(1.0 / (1.0 + exp(-x))); break;
    case U_TANH: UN_LOOP(tanh(x)); break;
    /* Float.max 0.0 x: positives pass, zeros normalize to +0.0, NaN
       propagates — fmax has different NaN rules, so spell it out. */
    case U_RELU: UN_LOOP((x > 0.0) ? x : (x != x ? x : 0.0)); break;
    case U_COPY: UN_LOOP(x); break;
    }
  }
  return Val_unit;
}

CAMLprim value functs_unary_map_bytecode(value *argv, int argn)
{
  (void)argn;
  return functs_unary_map(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6], argv[7], argv[8], argv[9],
                          argv[10]);
}

#define B_ADD 0
#define B_SUB 1
#define B_MUL 2
#define B_DIV 3
#define B_POW 4
#define B_LT 5
#define B_GT 6

#define BIN_LOOP(expr)                                                      \
  do {                                                                      \
    if (os == 1 && as == 1 && bs == 1)                                      \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[i], y = b[i];                                    \
        o[i] = (expr);                                                      \
      }                                                                     \
    else if (os == 1 && as == 1 && bs == 0)                                 \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[i], y = b[0];                                    \
        o[i] = (expr);                                                      \
      }                                                                     \
    else if (os == 1 && as == 0 && bs == 1)                                 \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[0], y = b[i];                                    \
        o[i] = (expr);                                                      \
      }                                                                     \
    else                                                                    \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[i * as], y = b[i * bs];                          \
        o[i * os] = (expr);                                                 \
      }                                                                     \
  } while (0)

CAMLprim value functs_binary_map(value vkind, value va, value vao, value vas,
                                 value var, value vb, value vbo, value vbs,
                                 value vbr, value vo, value voo, value vos,
                                 value vor, value vrows, value vn)
{
  const double *ab = (const double *)va + Long_val(vao);
  const double *bb = (const double *)vb + Long_val(vbo);
  double *obase = (double *)vo + Long_val(voo);
  const long as = Long_val(vas), bs = Long_val(vbs), os = Long_val(vos);
  const long ar = Long_val(var), br = Long_val(vbr), orow = Long_val(vor);
  const long rows = Long_val(vrows), n = Long_val(vn);
  const long kind = Long_val(vkind);
  for (long r = 0; r < rows; r++) {
    const double *a = ab + r * ar;
    const double *b = bb + r * br;
    double *o = obase + r * orow;
    switch (kind) {
    case B_ADD: BIN_LOOP(x + y); break;
    case B_SUB: BIN_LOOP(x - y); break;
    case B_MUL: BIN_LOOP(x * y); break;
    case B_DIV: BIN_LOOP(x / y); break;
    case B_POW: BIN_LOOP(pow(x, y)); break;
    case B_LT: BIN_LOOP((x < y) ? 1.0 : 0.0); break;
    case B_GT: BIN_LOOP((x > y) ? 1.0 : 0.0); break;
    }
  }
  return Val_unit;
}

CAMLprim value functs_binary_map_bytecode(value *argv, int argn)
{
  (void)argn;
  return functs_binary_map(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5], argv[6], argv[7], argv[8], argv[9],
                           argv[10], argv[11], argv[12], argv[13], argv[14]);
}

/* where(c, a, b): [c <> 0.0] picks [a], as the OCaml reference does (a
 * NaN condition is non-zero). */
CAMLprim value functs_where_map(value vc, value vco, value vcs, value vcr,
                                value va, value vao, value vas, value var,
                                value vb, value vbo, value vbs, value vbr,
                                value vo, value voo, value vos, value vor,
                                value vrows, value vn)
{
  const double *cb = (const double *)vc + Long_val(vco);
  const double *ab = (const double *)va + Long_val(vao);
  const double *bb = (const double *)vb + Long_val(vbo);
  double *obase = (double *)vo + Long_val(voo);
  const long cs = Long_val(vcs), as = Long_val(vas), bs = Long_val(vbs);
  const long os = Long_val(vos);
  const long cr = Long_val(vcr), ar = Long_val(var), br = Long_val(vbr);
  const long orow = Long_val(vor);
  const long rows = Long_val(vrows), n = Long_val(vn);
  for (long r = 0; r < rows; r++) {
    const double *c = cb + r * cr;
    const double *a = ab + r * ar;
    const double *b = bb + r * br;
    double *o = obase + r * orow;
    if (os == 1 && cs == 1 && as == 1 && bs == 1)
      for (long i = 0; i < n; i++) o[i] = (c[i] != 0.0) ? a[i] : b[i];
    else
      for (long i = 0; i < n; i++)
        o[i * os] = (c[i * cs] != 0.0) ? a[i * as] : b[i * bs];
  }
  return Val_unit;
}

CAMLprim value functs_where_map_bytecode(value *argv, int argn)
{
  (void)argn;
  return functs_where_map(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6], argv[7], argv[8], argv[9],
                          argv[10], argv[11], argv[12], argv[13], argv[14],
                          argv[15], argv[16], argv[17]);
}
