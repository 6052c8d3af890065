#!/usr/bin/env python3
"""Print the constants of lib/tensor/functs_exp.h, computed in 80-digit
decimal arithmetic and rounded once to double:

  - the reduction constants: 1/ln2, and ln2 split into ln2_hi (42
    significant bits, so k * ln2_hi is exact for |k| < 2^11) and the
    double nearest ln2 - ln2_hi;
  - q, of degree 9: exp(r) = 1 + r + r^2 q(r) on |r| <= ln2/2;
  - g, of degree 10: tanh(x) = x + x^3 g(x^2) on [0, 0.55].

Both polynomials interpolate at Chebyshev nodes (near-minimax); the
printed bound is the largest relative error of the double coefficients
over a grid, evaluated exactly, in units of 2^-53.

    python3 scripts/functs_exp_constants.py
"""
from decimal import Decimal as D, getcontext

getcontext().prec = 80
EPS = D(10) ** -78


def pi():
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239)
    def atan_inv(n):
        s, k, term = D(0), 0, D(1) / n
        while abs(term) > EPS:
            s += term / (2 * k + 1) * (-1) ** k
            k += 1
            term /= n * n
        return s

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def cos(t):
    s, term, k = D(0), D(1), 0
    while abs(term) > EPS:
        s += term
        k += 2
        term = -term * t * t / (k * (k - 1))
    return s


def fit(f, lo, hi, n):
    """Coefficients (constant first, each rounded to double) of the
    polynomial of degree n - 1 through f at the n Chebyshev nodes of
    [lo, hi]."""
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    nodes = [mid + half * cos(pi() * (2 * i + 1) / (2 * n)) for i in range(n)]
    rows = [[u**k for k in range(n)] + [f(u)] for u in nodes]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c:
                m = rows[r][c] / rows[c][c]
                rows[r] = [a - m * b for a, b in zip(rows[r], rows[c])]
    return [D(float(rows[i][n] / rows[i][i])) for i in range(n)]


def horner(coef, u):
    acc = D(0)
    for c in reversed(coef):
        acc = acc * u + c
    return acc


def tanh(x):
    e = (2 * x).exp()
    return (e - 1) / (e + 1)


def main():
    ln2 = D(2).ln()
    hi = D(int(ln2 * 2**42 + D("0.5"))) / 2**42  # ln2 < 1: 42 bits
    print("inv_ln2 = %s" % float(1 / ln2).hex())
    print("ln2_hi  = %s" % float(hi).hex())
    print("ln2_lo  = %s" % float(ln2 - hi).hex())

    # exp(r) = 1 + r + r^2 q(r); an even node count keeps r = 0 off the nodes
    h = ln2 / 2 * D("1.0001")
    q = fit(lambda r: (r.exp() - 1 - r) / (r * r), -h, h, 10)
    worst = max(
        abs(1 + r + r * r * horner(q, r) - r.exp()) / r.exp()
        for r in (h * i / 500 for i in range(-500, 501))
    )
    print("q (r^0 first): " + ", ".join(float(c).hex() for c in q))
    print("q: max relative error %.3f x 2^-53" % (worst / D(2) ** -53))

    # tanh(x) = x + x^3 g(x^2) on [0, 0.55]
    cut = D("0.55")

    def gu(u):
        x = u.sqrt()
        return (tanh(x) / x - 1) / u

    g = fit(gu, D(0), cut * cut, 11)
    worst = max(
        abs(x + x**3 * horner(g, x * x) - tanh(x)) / tanh(x)
        for x in (cut * i / 1000 for i in range(1, 1001))
    )
    print("g (u^0 first): " + ", ".join(float(c).hex() for c in g))
    print("g: max relative error %.3f x 2^-53" % (worst / D(2) ** -53))


if __name__ == "__main__":
    main()
