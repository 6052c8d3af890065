/* The shared exp, sigmoid and tanh of lib/tensor/functs_exp.h, built
 * for whatever -march this file is compiled with.  exp_isa.sh builds it once
 * with vectorisation off (the scalar build: what Scalar.apply_unary
 * runs) and once per x86-64 level with it on (the clones
 * functs_unary_map picks from at run time), and checks every build
 * against the scalar one bit for bit.
 *
 *   exp_isa LABEL --write FILE  scalar build: check exp and tanh
 *                               against glibc (random inputs and the
 *                               special values), then write the
 *                               outputs of the cases
 *   exp_isa LABEL --check FILE  compare this build's outputs with FILE
 *   exp_isa --supports LEVEL    exit 0 when this CPU can run LEVEL
 *                               (x86-64-v3 or x86-64-v4)
 *
 * The cases: special values (signed zeros, infinities, NaNs of both
 * signs with several payloads, subnormals, exp's overflow and underflow
 * thresholds, tanh's region cutoff at |x| = 0.55 and its saturation to
 * 1 near |x| = 19-23, each with its neighbours), inputs whose exp is
 * subnormal, and random inputs over the whole range, near zero and as
 * raw bit patterns.  NaN results are compared by their bits too: the
 * header builds them from the input, so every build must give the same
 * ones.  The glibc checks cover 10M inputs each and allow 1 ulp for exp
 * and 2 ulp for tanh. */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "functs_exp.h"

static uint64_t rng = 0x9e3779b97f4a7c15u;

static uint64_t next(void)
{
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  return rng;
}

static double unit(void) { return (double)(next() >> 11) * 0x1p-53; }
static double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
static uint64_t bits(double x) { return functs_exp_bits(x); }
static double of_bits(uint64_t u) { return functs_exp_of_bits(u); }

static const double thresholds[] = {
  709.782712893383973096, /* largest x with a finite exp */
  -745.133219101941108420, /* smallest x with a nonzero exp */
  -708.396418532264106224, /* smallest x with a normal exp */
  710.0, -746.0, 1024.0, -1075.0,
  0.55, /* tanh: polynomial below, exp above */
  19.0, 19.06154746539849, 22.0, 23.0, /* tanh saturates to 1 from 19.06 */
};

#define NSPECIAL 512
#define NRANDOM (1 << 20)
#define NCASES (NSPECIAL + NRANDOM)
#define NOUT (3 * NCASES) /* exp, sigmoid and tanh of each case */

static int special_values(double *v)
{
  int n = 0;
  const uint64_t payloads[] = { 0x0008000000000000ull, 0x0000000000000001ull,
                                0x0004000000000000ull, 0x000deadbeef00001ull,
                                0x000fffffffffffffull, 0x0008000000012345ull };
  for (int p = 0; p < 6; p++) {
    v[n++] = of_bits(0x7ff0000000000000ull | payloads[p]);
    v[n++] = of_bits(0xfff0000000000000ull | payloads[p]);
  }
  v[n++] = 0.0;
  v[n++] = -0.0;
  v[n++] = INFINITY;
  v[n++] = -INFINITY;
  v[n++] = 0x1p-1074;
  v[n++] = -0x1p-1074;
  v[n++] = 0x1p-1022;
  v[n++] = -0x1p-1022;
  v[n++] = 0x1p-60;
  v[n++] = -0x1p-60;
  v[n++] = 0x1.fffffffffffffp+1023;
  v[n++] = -0x1.fffffffffffffp+1023;
  for (size_t t = 0; t < sizeof thresholds / sizeof *thresholds; t++) {
    double x = thresholds[t];
    for (int s = 0; s < 8; s++) {
      v[n++] = x;
      v[n++] = -x;
      x = nextafter(x, INFINITY);
    }
    x = thresholds[t];
    for (int s = 0; s < 8; s++) {
      x = nextafter(x, -INFINITY);
      v[n++] = x;
      v[n++] = -x;
    }
  }
  while (n < NSPECIAL) v[n++] = uniform(-745.2, -708.3); /* subnormal exp */
  return n;
}

static void cases(double *v)
{
  int n = special_values(v);
  for (int i = 0; i < NRANDOM; i++) {
    switch (next() % 4) {
    case 0: v[n++] = uniform(-750.0, 715.0); break;
    case 1: v[n++] = uniform(-2.0, 2.0); break;
    case 2: v[n++] = uniform(-40.0, 40.0); break;
    default: v[n++] = of_bits(next()); break;
    }
  }
}

/* the loops the vectorised builds must vectorise like functs_unary_map */
__attribute__((noinline)) static void run(const double *x, double *ex,
                                          double *sg, double *th, long n)
{
  for (long i = 0; i < n; i++) ex[i] = functs_exp(x[i]);
  for (long i = 0; i < n; i++) sg[i] = functs_sigmoid(x[i]);
  for (long i = 0; i < n; i++) th[i] = functs_tanh(x[i]);
}

/* distance in ulps between two finite doubles of one sign, else 0 when
   both are the same infinity or both NaN, else a large number */
static uint64_t ulps(double a, double b)
{
  if (a != a || b != b) return (a != a && b != b) ? 0 : UINT64_MAX;
  if (signbit(a) != signbit(b)) return a == b ? 0 : UINT64_MAX;
  const uint64_t ua = bits(a), ub = bits(b);
  return ua > ub ? ua - ub : ub - ua;
}

static double exp_input(long i)
{
  switch (i % 4) {
  case 0: return uniform(-745.2, 709.8);
  case 1: return uniform(-1.0, 1.0);
  case 2: return uniform(-0x1p-20, 0x1p-20);
  default: return uniform(-40.0, 40.0);
  }
}

static double tanh_input(long i)
{
  switch (i % 4) {
  case 0: return uniform(-25.0, 25.0);
  case 1: return uniform(-1.5, 1.5);
  case 2: return uniform(-0x1p-20, 0x1p-20);
  default: return (i & 4 ? -1 : 1) * uniform(0.45, 0.65);
  }
}

/* 10M inputs from [input], compared with glibc's [ref]: at most [bound]
   ulp apart */
static int check_glibc(const char *label, const char *name,
                       double (*f)(double), double (*ref)(double),
                       double (*input)(long), uint64_t bound)
{
  const long n = 10000000;
  long same = 0, off = 0;
  uint64_t worst = 0;
  double worst_x = 0.0;
  for (long i = 0; i < n; i++) {
    const double x = input(i);
    const uint64_t d = ulps(f(x), ref(x));
    if (d == 0) same++;
    if (d > bound) off++;
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  printf("exp_isa %s: %ld inputs vs glibc %s: %.1f%% identical, max %llu "
         "ulp", label, n, name, 100.0 * (double)same / (double)n,
         (unsigned long long)worst);
  if (worst) printf(" (x = %a)", worst_x);
  printf("\n");
  if (off) {
    fprintf(stderr, "exp_isa %s: %ld %s results more than %llu ulp from "
            "glibc\n", label, off, name, (unsigned long long)bound);
    return 1;
  }
  return 0;
}

/* The special values in the scalar build's outputs [ex] and [th]: exp
   within 1 ulp and tanh within 2 ulp of glibc, zeros with glibc's sign
   (tanh(-0) = -0), and a NaN input back quieted with its sign and
   payload. */
static int check_special(const char *label, const double *x,
                         const double *ex, const double *th)
{
  long off = 0;
  for (long i = 0; i < NSPECIAL; i++) {
    int bad;
    if (x[i] != x[i]) {
      const uint64_t q = bits(x[i]) | FUNCTS_EXP_QUIET;
      bad = bits(ex[i]) != q || bits(th[i]) != q;
    } else {
      const double e = exp(x[i]), t = tanh(x[i]);
      bad = ulps(ex[i], e) > 1 || ulps(th[i], t) > 2
            || (e == 0.0 && bits(ex[i]) != bits(e))
            || (t == 0.0 && bits(th[i]) != bits(t));
    }
    if (bad && off++ < 5)
      fprintf(stderr, "exp_isa %s: x = %a: exp %a (glibc %a), tanh %a "
              "(glibc %a)\n", label, x[i], ex[i], exp(x[i]), th[i],
              tanh(x[i]));
  }
  if (off) {
    fprintf(stderr, "exp_isa %s: %ld special values off\n", label, off);
    return 1;
  }
  printf("exp_isa %s: %d special values within bounds of glibc\n", label,
         NSPECIAL);
  return 0;
}

static int supports(const char *level)
{
  __builtin_cpu_init();
  if (strcmp(level, "x86-64-v3") == 0)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
           && __builtin_cpu_supports("bmi2");
  if (strcmp(level, "x86-64-v4") == 0)
    return __builtin_cpu_supports("avx512f")
           && __builtin_cpu_supports("avx512vl")
           && __builtin_cpu_supports("avx512bw")
           && __builtin_cpu_supports("avx512dq");
  return 0;
}

int main(int argc, char **argv)
{
  if (argc == 3 && strcmp(argv[1], "--supports") == 0)
    return supports(argv[2]) ? 0 : 1;
  if (argc != 4) {
    fprintf(stderr, "usage: exp_isa LABEL --write|--check FILE\n");
    return 2;
  }
  const char *label = argv[1];
  const int write = strcmp(argv[2], "--write") == 0;
  double *x = malloc(NCASES * sizeof *x);
  double *out = malloc(NOUT * sizeof *out);
  double *ref = malloc(NOUT * sizeof *ref);
  if (!x || !out || !ref) return 2;
  cases(x);
  run(x, out, out + NCASES, out + 2 * NCASES, NCASES);
  FILE *f = fopen(argv[3], write ? "wb" : "rb");
  if (!f) {
    perror(argv[3]);
    return 2;
  }
  if (write) {
    const int bad = check_glibc(label, "exp", functs_exp, exp, exp_input, 1)
                    | check_glibc(label, "tanh", functs_tanh, tanh, tanh_input, 2)
                    | check_special(label, x, out, out + 2 * NCASES);
    fwrite(out, sizeof *out, NOUT, f);
    fclose(f);
    return bad;
  }
  if (fread(ref, sizeof *ref, NOUT, f) != NOUT) {
    fprintf(stderr, "exp_isa %s: short read from %s\n", label, argv[3]);
    return 2;
  }
  fclose(f);
  long bad = 0;
  static const char *const names[] = { "exp", "sigmoid", "tanh" };
  for (long i = 0; i < NOUT; i++)
    if (bits(out[i]) != bits(ref[i])) {
      if (bad++ < 5)
        fprintf(stderr, "exp_isa %s: %s(%a) = %a, scalar build %a\n", label,
                names[i / NCASES], x[i % NCASES], out[i], ref[i]);
    }
  if (bad) {
    fprintf(stderr, "exp_isa %s: %ld of %d results differ from the scalar "
            "build\n", label, bad, NOUT);
    return 1;
  }
  printf("exp_isa %s: %d exp, sigmoid and tanh results bitwise equal to the "
         "scalar build\n", label, NCASES);
  return 0;
}
