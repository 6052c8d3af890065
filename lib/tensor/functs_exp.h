/* The one exp of the project, and the sigmoid and tanh built on it.
 *
 * Every path that evaluates exp, sigmoid or tanh calls these:
 * Scalar.apply_unary (so the reference interpreter), the strided leaf
 * functs_unary_map in its AVX-512 / AVX2 / default clones
 * (lib/exec/gemm_stubs.c), and every JIT unit (lib/jit/jit.ml embeds
 * this file).  So a scalar build and a vectorised build must give the
 * same bits, which rules out what libm does (branches, errno) and asks
 * for:
 *   - only correctly rounded operations: IEEE add, sub, mul, div and
 *     explicit fma (one rounding, whether an FMA instruction or libm's
 *     fma() computes it), two's-complement integer ops and bit moves,
 *     compiled with -ffp-contract=off so no other mul+add pair becomes
 *     an FMA;
 *   - branch-free selects (clamps on the input, region and NaN selects);
 *   - no subnormal intermediate unless the input or the result is
 *     near the subnormal range: on x86 each subnormal result costs a
 *     microcode assist of about a hundred cycles (an Estrin r^8, below
 *     1e-308 once |r| < 1e-39, made nasrnn's cell 20% slower once its
 *     state had decayed that far);
 *   - NaN results built from the input's bits.  The compiler may
 *     rewrite arithmetic in ways that keep every non-NaN result but not
 *     a NaN's sign (GCC turns 1.0 + -t into 1.0 - t), so no NaN that
 *     reaches the caller comes out of arithmetic.
 *
 * exp: x = k ln2 + r with k = round(x / ln2) (the 1.5 * 2^52 shift
 * trick) and |r| <= ln2 / 2, ln2 split in two (Cody-Waite) so k * ln2_hi
 * is exact; exp(r) = 1 + r + r^2 q(r), q of degree 9 (near-minimax on
 * |r| <= ln2 / 2, below 0.15 ulp), evaluated by Horner's scheme with
 * fma; then 2^k is applied as two normal powers of two, so results near
 * overflow and subnormal results round once, like a single scaling by
 * 2^k would.  The input is clamped to [-746, 710] first: exp overflows
 * above 709.78 and underflows to +0 below -745.13, and both thresholds
 * fall out of the arithmetic.  No table: vectorised, a table lookup is
 * a gather, which GCC emulates one lane at a time, and a 2^(j/128)
 * table (exp(r) of degree 5, but a value and a tail per entry) ran
 * exp twice as slow at AVX-512 as this.  The result is within 1.12
 * ulp of the true exp and within 1 ulp of glibc's.
 *
 * tanh: for |x| < 0.55, the odd polynomial x + x^3 g(x^2), g of degree
 * 10 (near-minimax, below 0.05 ulp on the interval); above it,
 * 1 - 2/(e^(2|x|) + 1) on the exp above, with the rounding of the
 * denominator fed back (q - q^2 dlo/2); tanh >= 0.5 there, so the
 * subtraction does not cancel.  2|x| is clamped to 64, past which tanh
 * rounds to 1 (it does from |x| = 19.06).  Both regions are computed
 * and one selected; the sign of x is put back by bits, so
 * tanh(-0) = -0.  The result is within 1.07 ulp of the true tanh and
 * within 2 ulp of glibc's (whose own error reaches 2.1 ulp).
 *
 * The reduction constants and the coefficients of q and g come from
 * scripts/functs_exp_constants.py.  test/exp_isa.c checks exp (1 ulp)
 * and tanh (2 ulp) against glibc over 10M inputs each, and every ISA
 * build of all three functions against the scalar build bit for bit. */
#ifndef FUNCTS_EXP_H
#define FUNCTS_EXP_H

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Always inlined, so each caller compiles them for its own target: the
   FMA builds of scalar_stubs.c and gemm_stubs.c and the JIT kernels get
   every fma() as an instruction, where an out-of-line copy (GCC's -O2
   keeps tanh out of line) is built for the baseline and calls libm. */
#ifdef __GNUC__
#define FUNCTS_EXP_INLINE static inline __attribute__((always_inline))
#else
#define FUNCTS_EXP_INLINE static inline
#endif

#define FUNCTS_EXP_QUIET 0x0008000000000000ull
#define FUNCTS_EXP_SIGN 0x8000000000000000ull

FUNCTS_EXP_INLINE uint64_t functs_exp_bits(double x)
{
  uint64_t u;
  memcpy(&u, &x, sizeof u);
  return u;
}

FUNCTS_EXP_INLINE double functs_exp_of_bits(uint64_t u)
{
  double x;
  memcpy(&x, &u, sizeof x);
  return x;
}

/* exp(r) for x = k ln2 + r, |r| <= ln2 / 2, and *e = k + 2048 */
FUNCTS_EXP_INLINE double functs_exp_reduce(double x, uint64_t *e)
{
  const double shift = 0x1.8p52;
  double kd = fma(x, 0x1.71547652b82fep+0, shift);
  /* the low bits of kd hold k */
  *e = functs_exp_bits(kd) - functs_exp_bits(shift) + 2048;
  kd = kd - shift;
  double r = fma(kd, -0x1.62e42fefa3800p-1, x); /* exact: 42-bit ln2_hi */
  r = fma(kd, -0x1.ef35793c76730p-45, r);
  /* 1 + r + r^2 q(r), q by Horner */
  double q = 0x1.af38a9b0ec855p-26;
  q = fma(q, r, 0x1.289185613a3d6p-22);
  q = fma(q, r, 0x1.71de0dae63bb3p-19);
  q = fma(q, r, 0x1.a019b90d2ae7ap-16);
  q = fma(q, r, 0x1.a01a01a7c41d5p-13);
  q = fma(q, r, 0x1.6c16c1788bd90p-10);
  q = fma(q, r, 0x1.11111111109b3p-7);
  q = fma(q, r, 0x1.5555555553d63p-5);
  q = fma(q, r, 0x1.5555555555556p-3);
  q = fma(q, r, 0x1.0000000000001p-1);
  return 1.0 + fma(r, r * q, r);
}

/* exp of a number known not to be NaN (a NaN gives an unspecified NaN) */
FUNCTS_EXP_INLINE double functs_exp_finite(double x)
{
  double xc = x > 710.0 ? 710.0 : x;
  xc = xc < -746.0 ? -746.0 : xc;
  uint64_t e; /* k + 2048, in [972, 3072] */
  const double y = functs_exp_reduce(xc, &e);
  /* 2^k = 2^k1 * 2^k2 with k1 = floor(k / 2): both stay normal */
  const uint64_t h = e >> 1; /* k1 + 1024 */
  const double s1 = functs_exp_of_bits((h - 1) << 52);
  const double s2 = functs_exp_of_bits((e - h - 1) << 52);
  return y * s1 * s2;
}

/* a NaN input comes back quieted, sign and payload kept */
FUNCTS_EXP_INLINE double functs_exp_nan(double x, double y)
{
  return x != x ? functs_exp_of_bits(functs_exp_bits(x) | FUNCTS_EXP_QUIET)
                : y;
}

FUNCTS_EXP_INLINE double functs_exp(double x)
{
  return functs_exp_nan(x, functs_exp_finite(x));
}

/* 1 / (1 + exp(-x)).  exp(-x) is scaled by 2^(k-1), then by 2: with x
   clamped to [-710, 40], 2^(k-1) is normal.  The clamp changes no
   result (1 + exp(-x) rounds to 1 from x = 37.5, and exp(-x) overflows
   below x = -709.78 either way), so the bits are those of
   1 / (1 + functs_exp(-x)). */
FUNCTS_EXP_INLINE double functs_sigmoid(double x)
{
  double xc = x > 40.0 ? 40.0 : x;
  xc = xc < -710.0 ? -710.0 : xc;
  uint64_t e; /* k + 2048, k in [-58, 1024] */
  const double y = functs_exp_reduce(-xc, &e);
  const double ex = y * functs_exp_of_bits((e - 1026) << 52) * 2.0;
  return functs_exp_nan(x, 1.0 / (1.0 + ex));
}

FUNCTS_EXP_INLINE double functs_tanh(double x)
{
  const double a = functs_exp_of_bits(functs_exp_bits(x) & ~FUNCTS_EXP_SIGN);
  /* |x| < 0.55: a + a^3 g(a^2); below 2^-30 that rounds to a, so u
     is taken at 2^-30 there and stays far from subnormal */
  const double as = a > 0x1p-30 ? a : 0x1p-30;
  const double u = as * as;
  double g = -0x1.59a834187ce22p-16;
  g = fma(g, u, 0x1.64fd88e9900a5p-14);
  g = fma(g, u, -0x1.ec1091436eb2ap-13);
  g = fma(g, u, 0x1.34c5a8a996cd4p-11);
  g = fma(g, u, -0x1.7d97cfd138c28p-10);
  g = fma(g, u, 0x1.d6d339333f329p-9);
  g = fma(g, u, -0x1.226e32f00cf0cp-7);
  g = fma(g, u, 0x1.664f487713373p-6);
  g = fma(g, u, -0x1.ba1ba1b9fec84p-5);
  g = fma(g, u, 0x1.1111111111032p-3);
  g = fma(g, u, -0x1.5555555555555p-2);
  const double small = fma(a, u * g, a);
  /* above: 1 - 2/(e^(2a) + 1), where e^(2a) + 1 = d + dlo exactly */
  uint64_t e; /* k + 2048, k in [0, 93]: 2^k is normal */
  const double ey = functs_exp_reduce(2.0 * a > 64.0 ? 64.0 : 2.0 * a, &e)
                    * functs_exp_of_bits((e - 1025) << 52);
  const double d = ey + 1.0;
  const double dlo = (ey - d) + 1.0;
  const double q = 2.0 / d;
  const double z = a < 0.55 ? small : 1.0 - fma(-0.5 * q * q, dlo, q);
  return functs_exp_nan(x, functs_exp_of_bits(functs_exp_bits(z)
                                              | (functs_exp_bits(x)
                                                 & FUNCTS_EXP_SIGN)));
}

#endif
