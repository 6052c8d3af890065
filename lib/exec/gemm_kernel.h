/* Register-tiled GEMM, instantiated once per ISA.
 *
 * o[m,n] = a[m,k] * b[k,n], row-major.  Every output element starts at
 * +0.0 and adds a[i,l] * b[l,j] in ascending l, one multiply and one
 * add per term (the including file must build with -ffp-contract=off so
 * the pair never becomes an FMA).  That is the reference interpreter's
 * per-element sum, so results are bitwise-identical to it.
 *
 * Each output tile of MR rows x NR columns (NR = two vectors) is held in
 * named vector locals across all of k, so every output is stored once.
 * The tile shape follows the ISA this file is compiled for:
 *   - AVX-512: 8 x 16, then 4 x 16 for the last rows (16 of 32 zmm
 *     registers hold the tile);
 *   - AVX:     4 x 8 (8 of 16 ymm registers);
 *   - other:   no tile, so no shape runs slower than the row loop.  A
 *     4 x 4 tile of 128-bit vectors, built with -march=x86-64 and run on
 *     a Xeon, was 5-20% slower than the row loop on [16,128] x [128,512]
 *     and faster only on [1024,32] x [32,16].
 * Accumulators are named locals rather than an array: an array tile was
 * spilled to the stack on every k-step on AVX2.
 *
 * Columns past the last whole 16-column block, rows past the last whole
 * 4-row tile, and calls with fewer than 4 rows run the row loop below.  A
 * call with one or two rows (lstm at batch 1) streams all of [b] for
 * each row, so it is bandwidth-bound and the tile kernel would only add
 * overhead there.
 *
 * Packed weight.  A caller that multiplies by the same [b] many times
 * (a recurrence's weight, once per step) can copy it once into panels
 * of 16 columns, each k-major ([GEMM_NAME_pack]), and run the tiles
 * over the panels ([GEMM_NAME_packed]): a tile then streams one
 * contiguous 16 x k panel instead of 16 columns strided by n.  The sum
 * per element is unchanged, so results stay bitwise-identical.  Columns
 * past the last whole panel, rows past the last whole 4-row tile and
 * calls with fewer than 4 rows run the row loop on the original [b];
 * [GEMM_NAME_packs(m)] says whether a call with [m] rows reads the
 * panels at all.
 *
 * Usage: define GEMM_NAME, then include this file; it defines
 *   static void GEMM_NAME(const double *a, const double *b, double *o,
 *                         long m, long k, long n);
 *   static int GEMM_NAME_packs(long m);
 *   static void GEMM_NAME_pack(const double *b, double *bp, long k, long n);
 *   static void GEMM_NAME_packed(const double *a, const double *b,
 *                                const double *bp, double *o,
 *                                long m, long k, long n);
 * for the ISA enabled at the point of inclusion (by -march or by
 * #pragma GCC target), and undefines GEMM_NAME again.  [bp] holds
 * (n - n % 16) * k doubles. */

#ifndef GEMM_NAME
#error "define GEMM_NAME before including gemm_kernel.h"
#endif

#define GEMM_CAT2(x, y) x##_##y
#define GEMM_CAT(x, y) GEMM_CAT2(x, y)
#define GEMM_FN(x) GEMM_CAT(GEMM_NAME, x)

#if defined(__AVX512F__)
#define GEMM_W 8
#define GEMM_MR 8
#elif defined(__AVX__)
#define GEMM_W 4
#define GEMM_MR 4
#else
#define GEMM_MR 0
#endif

/* The row loop: rows of [o] one at a time, over the l-dimension in
 * panels of 8 rows of [b] so a panel stays L1-resident across the
 * output rows; within a panel the terms are added one by one in
 * ascending l (never re-associated), and the unit-stride j loop
 * vectorizes.  Leading dimensions let it cover a column range. */
static void GEMM_FN(rows)(const double *restrict a, long lda,
                          const double *restrict b, long ldb,
                          double *restrict o, long ldo, long m, long k,
                          long n)
{
  for (long i = 0; i < m; i++)
    for (long j = 0; j < n; j++) o[i * ldo + j] = 0.0;
  for (long l0 = 0; l0 < k; l0 += 8) {
    const long lhi = (l0 + 8 <= k) ? l0 + 8 : k;
    for (long i = 0; i < m; i++) {
      const double *ai = a + i * lda;
      double *oi = o + i * ldo;
      long l = l0;
      for (; l + 4 <= lhi; l += 4) {
        const double a0 = ai[l], a1 = ai[l + 1], a2 = ai[l + 2],
                     a3 = ai[l + 3];
        const double *b0 = b + l * ldb;
        const double *b1 = b0 + ldb, *b2 = b1 + ldb, *b3 = b2 + ldb;
        for (long j = 0; j < n; j++)
          oi[j] = (((oi[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j])
                  + a3 * b3[j];
      }
      for (; l < lhi; l++) {
        const double al = ai[l];
        const double *bl = b + l * ldb;
        for (long j = 0; j < n; j++) oi[j] += al * bl[j];
      }
    }
  }
}

#if GEMM_MR > 0
#define GEMM_NR (2 * GEMM_W)
typedef double GEMM_FN(vec) __attribute__((vector_size(8 * GEMM_W)));
#define GEMM_V GEMM_FN(vec)

/* Tile rows: accumulators c<r>a / c<r>b hold columns [0, W) / [W, NR)
 * of tile row r.  OCaml float arrays are only 8-byte aligned, so loads
 * and stores go through memcpy (an unaligned vector move). */
#define GEMM_ACC(r) GEMM_V c##r##a = zero, c##r##b = zero;
#define GEMM_STEP(r)                                                        \
  {                                                                         \
    const double x = a[(r) * lda + l];                                      \
    c##r##a = c##r##a + x * b0;                                             \
    c##r##b = c##r##b + x * b1;                                             \
  }
#define GEMM_STORE(r)                                                       \
  __builtin_memcpy(o + (r) * ldo, &c##r##a, sizeof c##r##a);                \
  __builtin_memcpy(o + (r) * ldo + GEMM_W, &c##r##b, sizeof c##r##b);
#define GEMM_LOAD_B                                                         \
  GEMM_V b0, b1;                                                            \
  __builtin_memcpy(&b0, b + l * ldb, sizeof b0);                            \
  __builtin_memcpy(&b1, b + l * ldb + GEMM_W, sizeof b1);

static inline void GEMM_FN(tile4)(const double *restrict a, long lda,
                                  const double *restrict b, long ldb,
                                  double *restrict o, long ldo, long k)
{
  const GEMM_V zero = {0};
  GEMM_ACC(0) GEMM_ACC(1) GEMM_ACC(2) GEMM_ACC(3)
  for (long l = 0; l < k; l++) {
    GEMM_LOAD_B
    GEMM_STEP(0) GEMM_STEP(1) GEMM_STEP(2) GEMM_STEP(3)
  }
  GEMM_STORE(0) GEMM_STORE(1) GEMM_STORE(2) GEMM_STORE(3)
}

#if GEMM_MR == 8
static inline void GEMM_FN(tile8)(const double *restrict a, long lda,
                                  const double *restrict b, long ldb,
                                  double *restrict o, long ldo, long k)
{
  const GEMM_V zero = {0};
  GEMM_ACC(0) GEMM_ACC(1) GEMM_ACC(2) GEMM_ACC(3)
  GEMM_ACC(4) GEMM_ACC(5) GEMM_ACC(6) GEMM_ACC(7)
  for (long l = 0; l < k; l++) {
    GEMM_LOAD_B
    GEMM_STEP(0) GEMM_STEP(1) GEMM_STEP(2) GEMM_STEP(3)
    GEMM_STEP(4) GEMM_STEP(5) GEMM_STEP(6) GEMM_STEP(7)
  }
  GEMM_STORE(0) GEMM_STORE(1) GEMM_STORE(2) GEMM_STORE(3)
  GEMM_STORE(4) GEMM_STORE(5) GEMM_STORE(6) GEMM_STORE(7)
}
#endif
#endif

/* Whole tiles run over 16-column blocks of a tile source: block p
 * starts at panels + p * pstep and its rows lie ldp apart (B itself:
 * pstep 16, ldp n; packed panels: pstep 16 k, ldp 16).  Columns past
 * the last whole block, rows past the last whole 4-row tile, and calls
 * with fewer than 4 rows run the row loop on [b].  Kept out of line, so
 * the plain and packed entries share one copy of the tile code. */
#define GEMM_PW 16

__attribute__((noinline)) static void GEMM_FN(run)(
    const double *restrict a, const double *b, const double *panels,
    long pstep, long ldp, double *restrict o, long m, long k, long n)
{
#if GEMM_MR > 0
  if (m >= 4) {
    const long mt = m - m % 4, nt = n - n % GEMM_PW;
    for (long j = 0; j < nt; j += GEMM_PW) {
      const double *panel = panels + (j / GEMM_PW) * pstep;
      for (long jj = 0; jj < GEMM_PW; jj += GEMM_NR) {
        long i = 0;
#if GEMM_MR == 8
        for (; i + 8 <= m; i += 8)
          GEMM_FN(tile8)(a + i * k, k, panel + jj, ldp, o + i * n + j + jj,
                         n, k);
#endif
        for (; i < mt; i += 4)
          GEMM_FN(tile4)(a + i * k, k, panel + jj, ldp, o + i * n + j + jj,
                         n, k);
      }
    }
    if (nt < n) GEMM_FN(rows)(a, k, b + nt, n, o + nt, n, mt, k, n - nt);
    if (mt < m)
      GEMM_FN(rows)(a + mt * k, k, b, n, o + mt * n, n, m - mt, k, n);
    return;
  }
#endif
  (void)panels;
  (void)pstep;
  (void)ldp;
  GEMM_FN(rows)(a, k, b, n, o, n, m, k, n);
}

static void GEMM_NAME(const double *a, const double *b, double *o, long m,
                      long k, long n)
{
  GEMM_FN(run)(a, b, b, GEMM_PW, n, o, m, k, n);
}

__attribute__((unused)) static int GEMM_FN(packs)(long m)
{
  return GEMM_MR > 0 && m >= 4;
}

/* Panel p holds columns [16p, 16p + 16) of [b], row l at bp[(p*k + l)*16]. */
__attribute__((unused)) static void GEMM_FN(pack)(const double *restrict b,
                                                  double *restrict bp, long k,
                                                  long n)
{
  for (long j = 0; j + GEMM_PW <= n; j += GEMM_PW)
    for (long l = 0; l < k; l++)
      for (long c = 0; c < GEMM_PW; c++)
        bp[j * k + l * GEMM_PW + c] = b[l * n + j + c];
}

__attribute__((unused)) static void GEMM_FN(packed)(
    const double *a, const double *b, const double *bp, double *o, long m,
    long k, long n)
{
  GEMM_FN(run)(a, b, bp, GEMM_PW * k, GEMM_PW, o, m, k, n);
}

#undef GEMM_PW
#undef GEMM_ACC
#undef GEMM_STEP
#undef GEMM_STORE
#undef GEMM_LOAD_B
#undef GEMM_V
#undef GEMM_NR
#undef GEMM_W
#undef GEMM_MR
#undef GEMM_FN
#undef GEMM_NAME
