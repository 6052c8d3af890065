/* The one exp of the project, and sigmoid built on it.
 *
 * Every path that evaluates exp or sigmoid calls these: Scalar.apply_unary
 * (so the reference interpreter), the strided leaf functs_unary_map in
 * its AVX-512 / AVX2 / default clones (lib/exec/gemm_stubs.c), and JIT
 * units that cannot link libmvec (lib/jit/jit.ml embeds this file).  So
 * a scalar build and a vectorised build must give the same bits, which
 * rules out what libm does (tables, branches, errno) and asks for:
 *   - only IEEE add, sub, mul and div, two's-complement integer ops and
 *     bit moves, compiled with -ffp-contract=off so no mul+add pair
 *     becomes an FMA;
 *   - branch-free selects (a clamp on the input, one NaN select);
 *   - NaN results built from the input's bits.  The compiler may
 *     rewrite arithmetic in ways that keep every non-NaN result but not
 *     a NaN's sign (GCC turns 1.0 + -t into 1.0 - t), so no NaN that
 *     reaches the caller comes out of arithmetic.
 *
 * Algorithm: x = k ln2 + r with k = round(x / ln2) (the 1.5 * 2^52 shift
 * trick) and |r| <= ln2 / 2, ln2 split in two (Cody-Waite) so k * ln2_hi
 * is exact; exp(r) is its Taylor polynomial of degree 13 (truncation
 * below 0.04 ulp), evaluated by Horner; then 2^k is applied as two
 * normal powers of two, so results near overflow and subnormal results
 * round once, like a single scaling by 2^k would.  The input is clamped
 * to [-746, 710] first: exp overflows above 709.78 and underflows to
 * +0 below -745.13, and both thresholds fall out of the arithmetic.
 * The result is within 1 ulp of glibc's exp (test/exp_isa.c checks this
 * over 10M inputs, and checks every ISA build against the scalar one). */
#ifndef FUNCTS_EXP_H
#define FUNCTS_EXP_H

#include <stdint.h>
#include <string.h>

#define FUNCTS_EXP_QUIET 0x0008000000000000ull

static inline uint64_t functs_exp_bits(double x)
{
  uint64_t u;
  memcpy(&u, &x, sizeof u);
  return u;
}

static inline double functs_exp_of_bits(uint64_t u)
{
  double x;
  memcpy(&x, &u, sizeof x);
  return x;
}

/* exp of a number known not to be NaN (a NaN gives an unspecified NaN) */
static inline double functs_exp_finite(double x)
{
  const double shift = 0x1.8p52;
  const double inv_ln2 = 0x1.71547652b82fep+0;
  const double ln2_hi = 0x1.62e42fefa3800p-1; /* 42 bits: k * ln2_hi exact */
  const double ln2_lo = 0x1.ef35793c76730p-45;
  double xc = x > 710.0 ? 710.0 : x;
  xc = xc < -746.0 ? -746.0 : xc;
  double kd = xc * inv_ln2 + shift;
  /* the low bits of kd hold k; here k + 2048 lies in [972, 3072] */
  const uint64_t e = functs_exp_bits(kd) - functs_exp_bits(shift) + 2048;
  kd = kd - shift;
  double r = xc - kd * ln2_hi;
  r = r - kd * ln2_lo;
  double p = 0x1.6124613a86d09p-33;
  p = p * r + 0x1.1eed8eff8d898p-29;
  p = p * r + 0x1.ae64567f544e4p-26;
  p = p * r + 0x1.27e4fb7789f5cp-22;
  p = p * r + 0x1.71de3a556c734p-19;
  p = p * r + 0x1.a01a01a01a01ap-16;
  p = p * r + 0x1.a01a01a01a01ap-13;
  p = p * r + 0x1.6c16c16c16c17p-10;
  p = p * r + 0x1.1111111111111p-7;
  p = p * r + 0x1.5555555555555p-5;
  p = p * r + 0x1.5555555555555p-3;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  /* 2^k = 2^k1 * 2^k2 with k1 = floor(k / 2): both stay normal */
  const uint64_t h = e >> 1; /* k1 + 1024 */
  const double s1 = functs_exp_of_bits((h - 1) << 52);
  const double s2 = functs_exp_of_bits((e - h - 1) << 52);
  return p * s1 * s2;
}

/* a NaN input comes back quieted, sign and payload kept */
static inline double functs_exp_nan(double x, double y)
{
  return x != x ? functs_exp_of_bits(functs_exp_bits(x) | FUNCTS_EXP_QUIET)
                : y;
}

static inline double functs_exp(double x)
{
  return functs_exp_nan(x, functs_exp_finite(x));
}

/* 1 / (1 + exp(-x)) */
static inline double functs_sigmoid(double x)
{
  return functs_exp_nan(x, 1.0 / (1.0 + functs_exp_finite(-x)));
}

#endif
