# Complex polynomial / rational-function / truncated-power-series kernel.
#
# Everything here is plain Python complex arithmetic on small objects
# (degrees stay below ~10, truncation orders below ~48); exactness of the
# coefficient recurrences matters more than vectorization.

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Sequence

# relative tolerance of every root, residue and vanishing-order decision
DEFAULT_TOL = 1e-9

Coeffs = tuple[complex, ...]


class RootFindingError(RuntimeError):
    """Simultaneous iteration failed to meet the residual bound."""


# ---------------------------------------------------------------------------
# dense univariate polynomials, ascending coefficients, trimmed
# ---------------------------------------------------------------------------

def poly_trim(c: Sequence[complex], rel: float = 0.0) -> Coeffs:
    """Drop trailing (highest-degree) coefficients at or below rel*scale."""
    c = [complex(x) for x in c]
    scale = max((abs(x) for x in c), default=0.0)
    cut = rel * scale
    while c and abs(c[-1]) <= cut:
        c.pop()
    return tuple(c)


def poly_degree(c: Sequence[complex]) -> int:
    t = poly_trim(c)
    return len(t) - 1


def poly_eval(c: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for a in reversed(c):
        acc = acc * z + a
    return acc


def poly_mul(a: Sequence[complex], b: Sequence[complex]) -> Coeffs:
    if not a or not b:
        return ()
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def poly_deriv(c: Sequence[complex]) -> Coeffs:
    return tuple(k * c[k] for k in range(1, len(c)))


def poly_shift(c: Sequence[complex], a: complex) -> Coeffs:
    """Taylor coefficients of p(a + z), by repeated synthetic division."""
    n = len(c)
    out: list[complex] = []
    cur = [complex(x) for x in c]
    while cur:
        rem = 0j
        for x in reversed(cur):
            rem = rem * a + x
        out.append(rem)
        quo = [0j] * (len(cur) - 1)
        acc = 0j
        for i in range(len(cur) - 1, 0, -1):
            acc = acc * a + cur[i]
            quo[i - 1] = acc
        cur = quo
    out.extend([0j] * (n - len(out)))
    return tuple(out)


def poly_from_roots(roots: Sequence[tuple[complex, int]], lead: complex = 1.0 + 0j) -> Coeffs:
    c: Coeffs = (lead,)
    for r, m in roots:
        for _ in range(m):
            c = poly_mul(c, (-r, 1.0 + 0j))
    return c


# ---------------------------------------------------------------------------
# root finding: Aberth-Ehrlich simultaneous iteration + multiplicity merge
# ---------------------------------------------------------------------------

def _aberth(monic: list[complex], max_iter: int = 400) -> list[complex]:
    d = len(monic) - 1
    if d == 1:
        return [-monic[0]]
    radius = 1.0 + max(abs(x) for x in monic[:-1])
    zs = [
        radius * cmath.exp(2j * math.pi * (k + 0.35) / d + 0.5j)
        for k in range(d)
    ]
    dp = poly_deriv(monic)
    for _ in range(max_iter):
        moved = 0.0
        for i in range(d):
            z = zs[i]
            p = poly_eval(monic, z)
            if p == 0:
                continue
            q = poly_eval(dp, z)
            ratio = p / q if q != 0 else p / (1e-30)
            s = 0j
            for j in range(d):
                if j != i:
                    dz = z - zs[j]
                    if dz == 0:
                        dz = 1e-20 * (1 + abs(z))
                    s += 1.0 / dz
            denom = 1.0 - ratio * s
            w = ratio / denom if denom != 0 else ratio
            zs[i] = z - w
            moved = max(moved, abs(w) / (1.0 + abs(z)))
        if moved < 1e-15:
            break
    return zs


def _cluster(points: list[complex]) -> list[list[complex]]:
    # union-find; join radius for a tentative cluster of size m is
    # DEFAULT_TOL^(1/m), matching the spread of an m-fold root computed in
    # floating point
    n = len(points)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def size(i: int) -> int:
        r = find(i)
        return sum(1 for j in range(n) if find(j) == r)

    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(i + 1, n):
                ri, rj = find(i), find(j)
                if ri == rj:
                    continue
                m = size(i) + size(j)
                radius = DEFAULT_TOL ** (1.0 / m) * (1.0 + abs(points[i]))
                if abs(points[i] - points[j]) <= radius:
                    parent[rj] = ri
                    changed = True
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(points[i])
    return list(groups.values())


def _polish(monic: list[complex], z: complex, m: int, iters: int = 8) -> complex:
    # safeguarded multiplicity-Newton: near a multiple root both p and p'
    # sit at the roundoff floor, where the Newton step is pure noise, so a
    # move is only kept when it actually lowers |p|
    dp = poly_deriv(monic)
    best, best_p = z, abs(poly_eval(monic, z))
    cur = best
    for _ in range(iters):
        p = poly_eval(monic, cur)
        noise = 8e-16 * sum(abs(c) * abs(cur) ** k for k, c in enumerate(monic))
        if abs(p) <= noise:
            break
        q = poly_eval(dp, cur)
        if q == 0:
            break
        step = m * p / q
        if abs(step) > 0.5 * (1 + abs(cur)):
            step *= 0.5 * (1 + abs(cur)) / abs(step)
        cand = cur - step
        pc = abs(poly_eval(monic, cand))
        if pc >= abs(p):
            break
        cur = cand
        if pc < best_p:
            best, best_p = cand, pc
    return best


def poly_roots(c: Sequence[complex]) -> list[tuple[complex, int]]:
    """All roots of a nonzero polynomial with multiplicities.

    Simultaneous (Aberth) iteration followed by a tolerance-aware cluster
    merge: approximations of an m-fold root spread over a radius ~eps^(1/m),
    so the join radius grows with the hypothesized multiplicity.  Raises
    RootFindingError when any merged root fails the residual bound.
    """
    trimmed = poly_trim(c, rel=1e-14)
    if not trimmed:
        raise ValueError("zero polynomial has no well-defined root set")
    scale = max(abs(x) for x in trimmed)
    deg = len(trimmed) - 1
    if deg == 0:
        return []
    # exact zero roots: strip low-order coefficients below working precision
    k0 = 0
    while k0 < deg and abs(trimmed[k0]) <= 1e-14 * scale:
        k0 += 1
    body = trimmed[k0:]
    roots: list[tuple[complex, int]] = []
    if k0:
        roots.append((0j, k0))
    d = len(body) - 1
    if d > 0:
        lead = body[-1]
        monic = [x / lead for x in body]
        approx = _aberth(monic)
        roots_body: list[tuple[complex, int]] = []
        for grp in _cluster(approx):
            m = len(grp)
            roots_body.append((_polish(monic, sum(grp) / m, m), m))
        for r, m in roots_body:
            res = abs(poly_eval(monic, r))
            bound = 10.0 * DEFAULT_TOL * max(1.0, abs(r)) ** d
            if res > bound:
                raise RootFindingError(
                    f"root {r!r} residual {res:.3e} exceeds bound {bound:.3e}"
                )
        roots.extend(roots_body)
    roots.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return roots


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def _local_orders(shifted: Sequence[complex]) -> int:
    """Index of the first coefficient above DEFAULT_TOL relative to the largest."""
    scale = max((abs(x) for x in shifted), default=0.0)
    if scale == 0.0:
        return len(shifted)
    for k, x in enumerate(shifted):
        if abs(x) > DEFAULT_TOL * scale:
            return k
    return len(shifted)


def rational_residue(num: Sequence[complex], den: Sequence[complex], p: complex) -> complex:
    """Residue of num/den at p; exact coefficient recurrences, no quadrature.

    Regular points (including common zeros that cancel the pole) return 0.
    """
    den_t = poly_trim(den, rel=1e-15)
    if not den_t:
        raise ValueError("denominator is the zero polynomial")
    num_t = poly_trim(num, rel=1e-15)
    if not num_t:
        return 0j
    ns = poly_shift(num_t, p)
    ds = poly_shift(den_t, p)
    m = _local_orders(ds)
    if m == 0:
        return 0j
    k = _local_orders(ns)
    order = m - k
    if order <= 0:
        return 0j
    # num/den = z^(k-m) * n1/d1 with d1(0) != 0; residue is the z^(m-k-1)
    # coefficient of n1 * (1/d1)
    n1 = TruncSeries.from_coeffs(ns[k:], order - 1)
    d1 = TruncSeries.from_coeffs(ds[m:], order - 1)
    series = n1.mul(d1.recip())
    return series.c[order - 1]


@dataclass(frozen=True)
class RatFn:
    """Rational function num/den held coprime (common roots cancelled)."""

    num: Coeffs
    den: Coeffs

    @staticmethod
    def make(num: Sequence[complex], den: Sequence[complex]) -> "RatFn":
        den_t = poly_trim(den, rel=1e-15)
        if not den_t:
            raise ValueError("denominator is the zero polynomial")
        num_t = poly_trim(num, rel=1e-15)
        if not num_t:
            return RatFn((), den_t)
        nroots = poly_roots(num_t)
        droots = poly_roots(den_t)
        nlist = [[r, m] for r, m in nroots]
        dkeep: list[tuple[complex, int]] = []
        for r, m in droots:
            for item in nlist:
                if item[1] > 0 and abs(item[0] - r) <= 1e-6 * (1 + abs(r)):
                    cancel = min(m, item[1])
                    item[1] -= cancel
                    m -= cancel
                    break
            if m > 0:
                dkeep.append((r, m))
        nkeep = [(r, m) for r, m in nlist if m > 0]
        new_num = poly_from_roots(nkeep, num_t[-1])
        new_den = poly_from_roots(dkeep, den_t[-1])
        return RatFn(new_num, new_den)

    def __call__(self, z: complex) -> complex:
        return poly_eval(self.num, z) / poly_eval(self.den, z)

    def residue(self, p: complex) -> complex:
        return rational_residue(self.num, self.den, p)

    def poles(self) -> list[tuple[complex, int]]:
        if poly_degree(self.den) < 1:
            return []
        return poly_roots(self.den)


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

def _mul(a: Sequence[complex], b: Sequence[complex], n: int) -> list[complex]:
    """Coefficients 0..n of a*b; zeros of a and leading zeros of b cost nothing."""
    out = [0j] * (n + 1)
    lo = next((j for j, bj in enumerate(b) if bj), n + 1)
    for i, ai in enumerate(a[: n + 1 - lo]):
        if ai:
            for j, bj in enumerate(b[lo: n + 1 - i], i + lo):
                out[j] += ai * bj
    return out


def _inverse_power(a: complex, step: int, r: int, k: int) -> list[complex]:
    """[t^j] s(t)^r for j <= k, where z s(z^step) inverts z + a z^(step+1).

    Lagrange inversion: r / (j step + r) C(j (step+1) + r - 1, j) (-a)^j.
    """
    if r == 0:
        return [1.0 + 0j] + [0j] * k
    return [
        r / (j * step + r) * math.comb(j * (step + 1) + r - 1, j) * (-a) ** j
        for j in range(k + 1)
    ]


@dataclass(frozen=True)
class TruncSeries:
    """Formal power series truncated at degree n (coefficients 0..n).

    The constructor checks and coerces its input; the arithmetic builds its
    results through ``_raw`` from tuples that are already complex.
    """

    n: int
    c: Coeffs

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("truncation order must be >= 0")
        if len(self.c) != self.n + 1:
            raise ValueError(f"need {self.n + 1} coefficients, got {len(self.c)}")
        object.__setattr__(self, "c", tuple(complex(x) for x in self.c))

    @classmethod
    def _raw(cls, n: int, c: Sequence[complex]) -> "TruncSeries":
        s = object.__new__(cls)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "c", tuple(c))
        return s

    @staticmethod
    def from_coeffs(c: Sequence[complex], n: int) -> "TruncSeries":
        cc = tuple(c)[: n + 1]
        return TruncSeries(n, cc + (0j,) * (n + 1 - len(cc)))

    @staticmethod
    def const(value: complex, n: int) -> "TruncSeries":
        return TruncSeries.from_coeffs([value], n)

    @staticmethod
    def identity(n: int) -> "TruncSeries":
        return TruncSeries.from_coeffs([0j, 1.0 + 0j], n)

    def truncate(self, n: int) -> "TruncSeries":
        return TruncSeries._raw(n, self.c[: n + 1] + (0j,) * (n - self.n))

    def add(self, other: "TruncSeries") -> "TruncSeries":
        return TruncSeries._raw(min(self.n, other.n), map(operator.add, self.c, other.c))

    def sub(self, other: "TruncSeries") -> "TruncSeries":
        return TruncSeries._raw(min(self.n, other.n), map(operator.sub, self.c, other.c))

    def scale(self, s: complex) -> "TruncSeries":
        return TruncSeries._raw(self.n, [s * x for x in self.c])

    def mul(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.n, other.n)
        return TruncSeries._raw(n, _mul(self.c, other.c, n))

    def recip(self) -> "TruncSeries":
        c = self.c
        if c[0] == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        out = [1.0 / c[0]]
        for k in range(1, self.n + 1):
            out.append(-out[0] * sum(map(operator.mul, c[1 : k + 1], out[::-1]), 0j))
        return TruncSeries._raw(self.n, out)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(z)); the inner series must have zero constant term.

        An inner z + h with h = O(z^p), p >= 2, takes the Taylor sum
        f(z + h) = sum_k f^(k)(z) h^k / k!, which has n/p terms (Brent and
        Kung 1978); any other inner series takes a Horner pass.
        """
        if inner.c[0] != 0:
            raise ValueError("composition needs inner constant term exactly zero")
        n = min(self.n, inner.n)
        f, g = self.c[: n + 1], inner.c[: n + 1]
        if n >= 2 and g[1] == 1:
            h = (0j, 0j) + g[2:]
            p = next((j for j, hj in enumerate(h) if hj), n + 1)
            # Horner in h over the Taylor terms; the k-th needs degrees <= n - k p
            acc = [0j]
            for k in range(n // p, -1, -1):
                top = n - k * p
                taylor = [math.comb(j + k, k) * f[j + k] for j in range(top + 1)]
                acc = list(map(operator.add, taylor, _mul(h, acc, top)))
            return TruncSeries._raw(n, acc)
        acc = [f[n]]
        for k in range(n - 1, -1, -1):
            acc = _mul(g, acc, n)
            acc[0] += f[k]
        return TruncSeries._raw(n, acc)

    def deriv(self) -> "TruncSeries":
        if self.n == 0:
            return TruncSeries._raw(0, (0j,))
        return TruncSeries._raw(self.n - 1, [k * x for k, x in enumerate(self.c[1:], 1)])

    def pow_int(self, p: int) -> "TruncSeries":
        if p < 0:
            return self.recip().pow_int(-p)
        acc, base = TruncSeries._raw(self.n, (1.0 + 0j,) + (0j,) * self.n), self
        while p:
            if p & 1:
                acc = acc.mul(base)
            p >>= 1
            if p:
                base = base.mul(base)
        return acc

    def reversion(self) -> "TruncSeries":
        """Compositional inverse of a series with c0 = 0, c1 != 0.

        b z + a z^m inverts in closed form (``_inverse_power`` at w / b);
        any other series by Newton doubling, g <- g - (f(g) - z) / f'(g),
        which doubles the correct degrees per pass (Brent and Kung 1978).
        """
        c, n = self.c, self.n
        if c[0] != 0:
            raise ValueError("reversion needs zero constant term")
        if c[1] == 0:
            raise ValueError("reversion needs a nonzero linear term")
        b = c[1]
        tail = [m for m in range(2, n + 1) if c[m]]
        if len(tail) <= 1:
            m = tail[0] if tail else n + 1
            s = _inverse_power(c[m] / b if tail else 0j, m - 1, 1, (n - 1) // (m - 1))
            out = [0j] * (n + 1)
            for k, x in enumerate(s):
                out[k * (m - 1) + 1] = x / b ** (k * (m - 1) + 1)
            return TruncSeries._raw(n, out)
        df = self.deriv()
        g = TruncSeries._raw(1, (0j, 1.0 / b))  # exact through degree g.n
        while g.n < n:
            g = g.truncate(min(2 * g.n + 1, n))
            err = self.truncate(g.n).compose(g).sub(TruncSeries.identity(g.n))
            g = g.sub(err.mul(df.truncate(g.n).compose(g).recip()))
        return g

    def eval(self, z: complex) -> complex:
        return poly_eval(self.c, z)


def solve_linear_series_ode(w: TruncSeries, y0: complex = 1.0 + 0j) -> TruncSeries:
    """Series solution of y' = w*y with y(0) = y0."""
    out = [complex(y0)]
    for k in range(w.n):
        out.append(sum(map(operator.mul, w.c[: k + 1], reversed(out)), 0j) / (k + 1))
    return TruncSeries._raw(w.n, out)
