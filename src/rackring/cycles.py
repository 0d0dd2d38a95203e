"""Sparse integer vectors indexed by cycle lengths.

These model formal integer combinations of the symbols c_n, one for each
cycle length n >= 1, with the bilinear product determined by
c_r * c_s = gcd(r, s) * c_lcm(r, s).  The vector with a single entry
{1: 1} is the multiplicative unit.  Their base, `SparseVector`, holds the
additive arithmetic that the Burnside ring's elements share.
"""

from __future__ import annotations

from math import gcd


class SparseVector(dict):
    """Finitely supported mapping {index -> integer coefficient} with addition,
    negation and integer scaling; zeros are never stored, missing keys read 0."""

    def __init__(self, data=()):
        super().__init__()
        items = data.items() if isinstance(data, dict) else data
        for index, coeff in items:
            self._bump(index, coeff)

    def _bump(self, index, coeff):
        new = self.get(index, 0) + coeff
        if new == 0:
            self.pop(index, None)
        else:
            dict.__setitem__(self, index, new)

    def __missing__(self, key):
        return 0

    def __add__(self, other):
        out = type(self)(self)
        for index, coeff in other.items():
            out._bump(index, coeff)
        return out

    def __sub__(self, other):
        out = type(self)(self)
        for index, coeff in other.items():
            out._bump(index, -coeff)
        return out

    def __neg__(self):
        return type(self)((index, -coeff) for index, coeff in self.items())

    def __mul__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return type(self)((index, other * coeff) for index, coeff in self.items())

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self):
        return f"{type(self).__name__}({dict(sorted(self.items()))!r})"


class CycleVector(SparseVector):
    """Sparse vector {cycle length -> integer coefficient}."""

    def _bump(self, length, coeff):
        if not isinstance(length, int) or length < 1:
            raise ValueError(f"cycle length must be a positive integer, got {length!r}")
        super()._bump(length, coeff)

    @classmethod
    def one(cls):
        return cls({1: 1})

    @classmethod
    def of_lengths(cls, lengths):
        """Vector counting the given multiset of cycle lengths."""
        return cls((length, 1) for length in lengths)

    def __mul__(self, other):
        if isinstance(other, int):
            return super().__mul__(other)
        out = CycleVector()
        for r, a in self.items():
            for s, b in other.items():
                g = gcd(r, s)
                out._bump(r * s // g, a * b * g)
        return out

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = CycleVector.one()
        for _ in range(k):
            out = out * self
        return out

    def total_size(self):
        """Number of points moved: sum of length * coefficient."""
        return sum(length * coeff for length, coeff in self.items())

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for length in sorted(self):
            coeff = self[length]
            parts.append(f"{coeff}*c{length}" if coeff != 1 else f"c{length}")
        return " + ".join(parts)
