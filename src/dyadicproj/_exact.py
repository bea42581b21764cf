"""Comparison of dyadic power sums sum_j a_j * 2^(-j*s).

Cover values are sums of terms 2^(-j*s) over cube levels j.  The cover DP
weighs whole levels at once: `ExponentContext.compare_rows` compares each
row of a multiplicity matrix against one cube's weight in floating point
and trusts the result wherever it clears a derived error bound.  When s is
(or rounds to) a rational p/q with q <= 64, the rows the float filter
cannot decide go to `compare`, which is exact, so self-similar ties are
decided deterministically.  For other exponents the float result is final,
with ties defined by a relative tolerance.
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
