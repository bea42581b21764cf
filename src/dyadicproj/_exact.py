"""Comparison of dyadic power sums sum_j a_j * 2^(-j*s).

Cover values are sums of terms 2^(-j*s) over cube levels j.  The cover DP
weighs whole levels at once: `ExponentContext.compare_rows` compares each
row of a multiplicity matrix against one cube's weight in floating point
and trusts the result wherever it clears a derived error bound.  When s is
(or rounds to) a rational p/q with q <= 64, the rows the float filter
cannot decide go to `compare`, which is exact, so self-similar ties are
decided deterministically.  For other exponents the float result is final,
with ties defined by a relative tolerance.  `_cmp_pow2` decides a rational
against one power 2^(e*p/q) the same way, float filter first, and the scan
takes its kappa, its bad label and its budget gate from it, and
heavy_decompose its default thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import _unique_rows

_SNAP_DENOMINATOR = 64
_SNAP_RTOL = 1e-9
_FLOAT_RTOL = 1e-12

# Float filter for snapped exponents s = p/q.  With u = 2^-53, the weight of
# level k is computed as pow(2, fl(-k * fl(p/q))):
#  - fl(p/q) and the product each round by at most u, so the exponent k*p/q,
#    at most MAX_LEVEL * MAX_DIM = 160 (s <= dim), is off by less than
#    160 * 2.0001u < 321u, which scales 2^(-k*p/q) by a relative error below
#    ln(2) * 321u * (1 + 1e-13) < 223u;
#  - pow adds at most 1 ulp, 2u relative;
#  - mult * w rounds once (u); mult < 2^53 converts to float exactly;
#  - a sum of at most MAX_LEVEL + 1 = 21 positive terms adds at most 20u,
#    in any order.
# So each computed value a' is a * (1 + t) with |t| < 247u <= 2^-45 =: eta,
# both for a row's value and for the single weight it is compared with.  The
# float order of a' and b' is the true order of a and b whenever
# |a' - b'| > eta * (a' + b'), which |a' - b'| > 2 * eta * max(a', b')
# implies.
_FILTER_RTOL = 2.0**-44


def snap_exponent(s: float) -> Fraction | None:
    """Nearest rational p/q with q <= 64, or None if s is not close to one."""
    frac = Fraction(s).limit_denominator(_SNAP_DENOMINATOR)
    if abs(float(frac) - s) <= _SNAP_RTOL * max(1.0, abs(s)):
        return frac
    return None


def _iroot(x: int, q: int) -> int:
    """Floor of the integer q-th root of x >= 0."""
    if x < 2 or q == 1:
        return x
    r = 1 << ((x.bit_length() - 1) // q + 1)
    while True:
        nr = ((q - 1) * r + x // r ** (q - 1)) // q
        if nr >= r:
            return r
        r = nr


# Float filter of _cmp_pow2 for x against t = 2^(e*p/q), |e*p/q| <= 1000.
# With u = 2^-53: fl(p/q) and its product with e each round by at most u,
# so the exponent is off by less than 1001 * 2.0001u, which scales the power
# by a relative error below ln(2) * 2003u < 1389u; pow adds at most 2u, so
# t' is within 1392u of t, and float(x) is within u of x (or within 2^-1075
# of it when subnormal, far below 2^-42 * t' with t' > 2^-1001).  Hence
# |x' - t'| > 2^-42 * (x' + t') = 4096u * (x' + t') implies that x and t
# are in the order of x' and t'.
_POW_RTOL = 2.0**-42


def _cmp_pow2(x, e: int, frac: Fraction) -> int:
    """Sign of x - 2^(e*frac) for a rational x >= 0: in floats where they
    clear _POW_RTOL, else as x^q against 2^(e*p) in integers."""
    exponent = e * float(frac)
    if abs(exponent) <= 1000 and x < 1 << 1000:
        xf, t = float(x), 2.0**exponent
        if abs(xf - t) > _POW_RTOL * (xf + t):
            return 1 if xf > t else -1
    x = Fraction(x)
    q = frac.denominator
    lhs, rhs, shift = x.numerator**q, x.denominator**q, e * frac.numerator
    if shift >= 0:
        rhs <<= shift
    else:
        lhs <<= -shift
    return (lhs > rhs) - (lhs < rhs)


def _ceil_pow2(frac: Fraction, e: int, cap: int, factor: Fraction = Fraction(1)) -> int:
    """Exact min(cap, ceil(factor * 2^(e*frac))) for a rational factor > 0
    and cap >= 1, by bisection on [0, cap]: about log2(cap) comparisons,
    almost all of them decided by the float filter, however large e*frac is."""
    if _cmp_pow2(cap / factor, e, frac) <= 0:
        return cap
    lo, hi = 0, cap  # lo < ceil(factor * 2^(e*frac)) <= hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _cmp_pow2(mid / factor, e, frac) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ExponentContext:
    """Comparison context for level-multiplicity dicts {level: count} and
    multiplicity matrices whose column c counts cubes of level j + c."""

    s: float
    frac: Fraction | None

    @classmethod
    def create(cls, s: float) -> "ExponentContext":
        return cls(float(s), snap_exponent(float(s)))

    def to_float(self, terms: dict) -> float:
        return float(sum(mult * 2.0 ** (-j * self.s) for j, mult in sorted(terms.items())))

    def _filter(self, rows: np.ndarray, j: int) -> np.ndarray:
        """Float sign of value(row) - 2^(-j*s) for each row, as int8.

        Unsnapped s: the float rule of `compare`, bit for bit, with 0 for a
        tie.  Snapped s: ties are defined for p/q, so the weights use
        float(p/q), not s, and 0 means undecided."""
        s = self.s if self.frac is None else float(self.frac)
        value = np.zeros(rows.shape[0])
        for c in range(rows.shape[1]):  # Python's pow, summed as in to_float
            value += rows[:, c] * 2.0 ** (-(j + c) * s)
        own = 2.0 ** (-j * s)
        rtol = _FLOAT_RTOL if self.frac is None else _FILTER_RTOL
        close = np.abs(value - own) <= rtol * np.maximum(value, own)
        return np.where(close, 0, np.sign(value - own)).astype(np.int8)

    def compare_rows(self, rows: np.ndarray, j: int) -> np.ndarray:
        """Sign of value(row) - 2^(-j*s) for each row of an int matrix whose
        column c counts cubes of level j + c; exact for snapped s."""
        signs = self._filter(rows, j)
        undecided = np.flatnonzero(signs == 0)
        if self.frac is not None and len(undecided):
            # a level's undecided rows often repeat one self-similar tie
            distinct, inverse = _unique_rows(rows[undecided])
            own = {j: 1}
            decided = [
                self.compare({j + int(c): int(row[c]) for c in np.flatnonzero(row)}, own)
                for row in distinct
            ]
            signs[undecided] = np.array(decided, dtype=np.int8)[inverse]
        return signs

    def compare(self, a: dict, b: dict) -> int:
        """Sign of value(a) - value(b): -1, 0 or +1."""
        diff = dict(a)
        for j, mult in b.items():
            diff[j] = diff.get(j, 0) - mult
        diff = {j: m for j, m in diff.items() if m != 0}
        if not diff:
            return 0
        if self.frac is None:
            va = self.to_float(a)
            vb = self.to_float(b)
            if abs(va - vb) <= _FLOAT_RTOL * max(abs(va), abs(vb), 1e-300):
                return 0
            return -1 if va < vb else 1
        return self._compare_exact(diff)

    def _compare_exact(self, diff: dict) -> int:
        # value = sum_j m_j * mu^(j*p) with mu = 2^(-1/q); group exponents by
        # residue mod q so the value becomes sum_r c_r * mu^r with c_r exactly
        # representable.  The mu^r are linearly independent over Q, so all
        # c_r = 0 iff the value is zero.
        p, q = self.frac.numerator, self.frac.denominator
        coeff: dict[int, Fraction] = {}
        for j, mult in diff.items():
            e = j * p
            r = e % q
            coeff[r] = coeff.get(r, Fraction(0)) + Fraction(mult, 1 << (e // q))
        coeff = {r: c for r, c in coeff.items() if c != 0}
        if not coeff:
            return 0
        if len(coeff) == 1:
            ((_, c),) = coeff.items()
            return 1 if c > 0 else -1
        bits = 64
        while True:
            lo = Fraction(0)
            hi = Fraction(0)
            for r, c in coeff.items():
                # 2^(-r/q) lies in [t, t+1] / 2^bits with t the floor root
                t = _iroot(1 << (bits * q - r), q)
                b_lo = Fraction(t, 1 << bits)
                b_hi = Fraction(t + 1, 1 << bits)
                if c >= 0:
                    lo += c * b_lo
                    hi += c * b_hi
                else:
                    lo += c * b_hi
                    hi += c * b_lo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
