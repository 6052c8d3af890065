/* The GEMM kernel of lib/exec/gemm_kernel.h, built for whatever -march
 * this file is compiled with, checked bitwise against a naive triple
 * loop.  gemm_isa.sh builds it once per x86-64 level, so every tile
 * shape the library can pick at run time is exercised, not only the
 * host's.
 *
 *   gemm_isa LABEL              run the checks; LABEL names the build
 *   gemm_isa --supports LEVEL   exit 0 when this CPU can run LEVEL
 *                               (x86-64-v3 or x86-64-v4)
 *
 * The cases follow the matmul property test in test_exec.ml: tiny and
 * tile-edge shapes, special values (NaN, infinities, subnormals, signed
 * zeros) and rows of -0.0 products, plus the workloads' shapes.  Every
 * NaN compares equal to every other: which payload survives an add of
 * two NaNs is unspecified.  Each case also runs the packed-panel entry
 * (gemm_under_test_pack, then gemm_under_test_packed); a fixed sweep
 * covers it at m in {1, 3, 4, 5, 12, 16}, n below, at and past whole
 * 16-column panels, and k = 1. */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define GEMM_NAME gemm_under_test
#include "gemm_kernel.h"

static uint64_t rng = 0x9e3779b97f4a7c15u;

static uint64_t next(void)
{
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  return rng;
}

static long below(long n) { return (long)(next() % (uint64_t)n); }
static double unit(void) { return (double)(next() >> 11) * 0x1p-53; }

static double value(int special)
{
  if (below(32) >= special) return 4.0 * unit() - 2.0;
  switch (below(7)) {
  case 0: return __builtin_nan("");
  case 1: return __builtin_inf();
  case 2: return -__builtin_inf();
  case 3: return -0.0;
  case 4: return 0.0;
  case 5: return 0x1p-1022 * unit();
  default: return -0x1p-1022 * unit();
  }
}

/* tiny sizes, whole 16-column tiles, or anything up to 40 */
static long dim(long lo)
{
  switch (below(4)) {
  case 0: return lo + below(3);
  case 1: return 16 * (1 + below(2));
  default: return lo + below(40);
  }
}

static void naive(const double *a, const double *b, double *o, long m,
                  long k, long n)
{
  for (long i = 0; i < m; i++)
    for (long j = 0; j < n; j++) {
      double acc = 0.0;
      for (long l = 0; l < k; l++) acc = acc + a[i * k + l] * b[l * n + j];
      o[i * n + j] = acc;
    }
}

static int same(double x, double y)
{
  if (x != x || y != y) return x != x && y != y;
  return memcmp(&x, &y, sizeof x) == 0;
}

/* Buffers start one double past malloc's alignment: OCaml float arrays
 * are only 8-byte aligned. */
static double *alloc(long n)
{
  double *p = malloc(sizeof(double) * (size_t)(n + 1));
  if (!p) {
    perror("malloc");
    exit(2);
  }
  return p + 1;
}

static int check(const char *label, long m, long k, long n, int special,
                 int zero_row)
{
  double *a = alloc(m * k), *b = alloc(k * n);
  double *got = alloc(m * n), *want = alloc(m * n);
  for (long i = 0; i < m * k; i++) a[i] = value(special);
  for (long i = 0; i < k * n; i++)
    b[i] = zero_row ? 0.5 + 1.5 * unit() : value(special);
  if (zero_row) {
    const long row = below(m);
    for (long l = 0; l < k; l++) a[row * k + l] = -0.0;
  }
  naive(a, b, want, m, k, n);
  double *panels = alloc((n - n % 16) * k + 1);
  int ok = 1;
  for (int packed = 0; packed < 2 && ok; packed++) {
    /* poison the output: the kernel must write every element */
    for (long i = 0; i < m * n; i++) got[i] = 12345.0;
    if (packed) {
      gemm_under_test_pack(b, panels, k, n);
      gemm_under_test_packed(a, b, panels, got, m, k, n);
    } else
      gemm_under_test(a, b, got, m, k, n);
    for (long i = 0; i < m * n && ok; i++)
      if (!same(got[i], want[i])) {
        fprintf(stderr,
                "gemm_isa %s: %s[%ldx%ld] @ [%ldx%ld]%s: o[%ld,%ld] = %a, "
                "expected %a\n",
                label, packed ? "packed " : "", m, k, k, n,
                zero_row ? " with a -0.0 row" : "", i / n, i % n, got[i],
                want[i]);
        ok = 0;
      }
  }
  free(panels - 1);
  free(a - 1);
  free(b - 1);
  free(got - 1);
  free(want - 1);
  return ok;
}

static int supports(const char *level)
{
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (strcmp(level, "x86-64-v3") == 0)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
           && __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
  if (strcmp(level, "x86-64-v4") == 0)
    return supports("x86-64-v3") && __builtin_cpu_supports("avx512f")
           && __builtin_cpu_supports("avx512bw")
           && __builtin_cpu_supports("avx512cd")
           && __builtin_cpu_supports("avx512dq")
           && __builtin_cpu_supports("avx512vl");
#endif
  (void)level;
  return 0;
}

int main(int argc, char **argv)
{
  if (argc == 3 && strcmp(argv[1], "--supports") == 0)
    return supports(argv[2]) ? 0 : 1;
  const char *label = argc > 1 ? argv[1] : "default";
  /* lstm at batch 1, 4 and 16; yolact; attention's matrix-vector
   * products at t = 63; a square tile-aligned case */
  static const long fixed[][3] = {
    { 1, 128, 512 }, { 4, 128, 512 }, { 16, 128, 512 }, { 1024, 32, 16 },
    { 64, 64, 1 },   { 1, 64, 64 },   { 64, 64, 64 },
  };
  int failures = 0, cases = 0;
  for (size_t s = 0; s < sizeof fixed / sizeof fixed[0]; s++, cases++)
    failures += !check(label, fixed[s][0], fixed[s][1], fixed[s][2], 1, 0);
  /* the packed entry's edges: every row split around the 4- and 8-row
   * tiles, n short of, at and past whole panels, and k = 1 */
  static const long ms[] = { 1, 3, 4, 5, 12, 16 };
  static const long ns[] = { 7, 16, 24, 37, 512 };
  static const long ks[] = { 1, 9, 128 };
  for (size_t i = 0; i < sizeof ms / sizeof ms[0]; i++)
    for (size_t j = 0; j < sizeof ns / sizeof ns[0]; j++)
      for (size_t l = 0; l < sizeof ks / sizeof ks[0]; l++, cases++)
        failures += !check(label, ms[i], ks[l], ns[j], 1, 0);
  for (int c = 0; c < 1000; c++, cases++) {
    const long m = dim(1), k = dim(0), n = dim(1);
    const int special = (int[]){ 0, 1, 8 }[below(3)];
    failures += !check(label, m, k, n, special, k > 0 && below(6) == 0);
  }
#if defined(__AVX512F__)
  const char *tile = "8x16 and 4x16 (AVX-512)";
#elif defined(__AVX__)
  const char *tile = "4x8 (AVX)";
#else
  const char *tile = "no (row loop only)";
#endif
  printf("gemm_isa %s: %s tiles, %d/%d cases bitwise-equal\n", label, tile,
         cases - failures, cases);
  return failures ? 1 : 0;
}
