/* Native inner kernels for Fastops: the GEMM behind matmul2d_into and
 * the strided elementwise maps below.
 *
 * The GEMM is gemm_kernel.h's register-tiled kernel, built once per ISA
 * and picked once at load time from what the CPU supports:
 *   - AVX-512: 8 x 16 and 4 x 16 tiles of 512-bit vectors;
 *   - AVX2 and FMA: 4 x 8 tiles of 256-bit vectors;
 *   - default: the row loop only, with a libm fma() call per term.
 * Each clone needs its own source-level tile: a 512-bit vector type
 * built for AVX2 is split into scalar code, and a tile wider than the
 * register file spills on every k-step.  Calls with fewer than 4 rows
 * (lstm at batch 1) stay on the row loop, which is bandwidth-bound
 * there anyway.  Every output element takes one fma per term from
 * +0.0 in ascending l, as the reference does, and fma rounds once
 * in hardware and in libm alike, so every clone is bitwise-identical
 * to the reference.
 *
 * Compiled with -ffp-contract=off (see lib/exec/dune): the GEMM's fmas
 * are explicit, and every other multiply-add (functs_exp.h's, the maps')
 * stays two roundings, as in the reference.  Intrinsic headers, if one
 * is ever needed, go above the first #pragma GCC target: included under
 * a target, they break the clones compiled after it.  test/gemm_isa.c
 * builds the same kernel at each x86-64 level and checks it against a
 * naive fma triple loop. */
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define ISA_CLONES
#pragma GCC push_options
#pragma GCC target("avx512f")
#define GEMM_NAME gemm_avx512
#include "gemm_kernel.h"
#pragma GCC pop_options
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#define GEMM_NAME gemm_avx2
#include "gemm_kernel.h"
#pragma GCC pop_options
#endif
#define GEMM_NAME gemm_default
#include "gemm_kernel.h"

typedef void gemm_fn(const double *, const double *, double *, long, long,
                     long);
static gemm_fn *gemm = gemm_default;

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
 * the same libm calls (log and pow compile to the identical symbols
 * Float.log and Float.pow call), the shared exp, sigmoid and tanh of
 * functs_exp.h (which Scalar.exp, Scalar.sigmoid and Scalar.tanh call)
 * and the same IEEE primitives — so results are bitwise-identical; the
 * win is dropping the per-element closure dispatch, float boxing and
 * bounds checks, and for exp, sigmoid and tanh vector code: their rows
 * run in AVX-512, AVX2 and default clones, picked at load like the
 * GEMM's.  Operators whose OCaml
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

/* exp, sigmoid and tanh.  functs_exp.h is branch-free, so each clone's
   loops vectorise at its width, and all give the scalar build's bits
   (test/exp_isa.sh checks each ISA).  The AVX2 clone also needs FMA:
   without it every fma() of functs_exp.h is a libm call, as in the
   default clone.  Rows shorter than a vector (the 2-wide box slices of
   yolov3) would run the scalar remainder loop, so those run down the
   rows instead, one column at a time, with strided loads and stores. */
#include "functs_exp.h"

#define EXP_COLS(f)                                                         \
  for (long i = 0; i < n; i++) {                                            \
    const double *a = ab + i * as;                                          \
    double *o = ob + i * os;                                                \
    for (long r = 0; r < rows; r++) o[r * orow] = f(a[r * ar]);             \
  }

#define EXP_ROWS(f)                                                         \
  for (long r = 0; r < rows; r++) {                                         \
    const double *a = ab + r * ar;                                          \
    double *o = ob + r * orow;                                              \
    UN_LOOP(f(x));                                                          \
  }

#define EXP_MAP(name)                                                       \
  static void name(long kind, const double *ab, long as, long ar,           \
                   double *ob, long os, long orow, long rows, long n)       \
  {                                                                         \
    if (n >= 8 || n >= rows) {                                              \
      if (kind == U_EXP)                                                    \
        EXP_ROWS(functs_exp)                                                \
      else if (kind == U_SIGMOID)                                           \
        EXP_ROWS(functs_sigmoid)                                            \
      else                                                                  \
        EXP_ROWS(functs_tanh)                                               \
    } else if (kind == U_EXP)                                               \
      EXP_COLS(functs_exp)                                                  \
    else if (kind == U_SIGMOID)                                             \
      EXP_COLS(functs_sigmoid)                                              \
    else                                                                    \
      EXP_COLS(functs_tanh)                                                 \
  }

#ifdef ISA_CLONES
#pragma GCC push_options
#pragma GCC target("avx512f")
EXP_MAP(exp_map_avx512)
#pragma GCC pop_options
#pragma GCC push_options
#pragma GCC target("avx2,fma")
EXP_MAP(exp_map_avx2)
#pragma GCC pop_options
#endif
EXP_MAP(exp_map_default)

typedef void exp_map_fn(long, const double *, long, long, double *, long,
                        long, long, long);
static exp_map_fn *exp_map = exp_map_default;

#ifdef ISA_CLONES
__attribute__((constructor)) static void clones_pick(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    gemm = gemm_avx512;
    exp_map = exp_map_avx512;
  } else if (__builtin_cpu_supports("avx2")
             && __builtin_cpu_supports("fma")) {
    gemm = gemm_avx2;
    exp_map = exp_map_avx2;
  }
}
#endif

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
  if (kind == U_EXP || kind == U_SIGMOID || kind == U_TANH) {
    exp_map(kind, ab, as, ar, ob, os, orow, rows, n);
    return Val_unit;
  }
  for (long r = 0; r < rows; r++) {
    const double *a = ab + r * ar;
    double *o = ob + r * orow;
    switch (kind) {
    case U_NEG: UN_LOOP(-x); break;
    case U_ABS: UN_LOOP(fabs(x)); break;
    case U_LOG: UN_LOOP(log(x)); break;
    case U_SQRT: UN_LOOP(sqrt(x)); break;
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
    /* With two NaN operands x86 returns the first one, and the compiler
       may swap the operands of a commutative + or *: a NaN [x] is
       spelled [x op x] so the result is [x]'s NaN, as in OCaml.  The
       select vectorizes under -fno-trapping-math (see dune). */
    case B_ADD: BIN_LOOP(x != x ? x + x : x + y); break;
    case B_SUB: BIN_LOOP(x - y); break;
    case B_MUL: BIN_LOOP(x != x ? x * x : x * y); break;
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
