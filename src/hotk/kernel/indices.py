"""Ordinal type indices of the form w*q + r.

Every index this workbench needs looks like n, w, w+3 or w*2+1, so a
pair of naturals (q, r) denoting w*q + r covers them all, and the ordinal
order is plain lexicographic order on the pair.  Anything larger (w*w and
beyond) is rejected at parse time (hotk.kernel.parser reads indices).

The kernel builds its indices through ordinal (fin, succ, pred, plus and
the parser all do), which hands out one shared object per value: the few
indices a formula uses are built once, and comparing equal indices finds
them identical.  A TypeIndex built directly is an equal, separate object.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class TypeIndex:
    omega_coeff: int
    finite_part: int

    def __post_init__(self):
        if self.omega_coeff < 0 or self.finite_part < 0:
            raise ValueError("type index parts must be naturals")

    @property
    def is_finite(self) -> bool:
        return self.omega_coeff == 0

    @property
    def is_limit(self) -> bool:
        return self.omega_coeff > 0 and self.finite_part == 0

    @property
    def finite_value(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is not a finite index")
        return self.finite_part

    def succ(self) -> "TypeIndex":
        return ordinal(self.omega_coeff, self.finite_part + 1)

    def pred(self) -> "TypeIndex":
        if self.finite_part == 0:
            raise ValueError(f"{self} has no predecessor")
        return ordinal(self.omega_coeff, self.finite_part - 1)

    def plus(self, n: int) -> "TypeIndex":
        if n < 0:
            raise ValueError("plus takes a natural")
        return ordinal(self.omega_coeff, self.finite_part + n)

    def __str__(self) -> str:
        q, r = self.omega_coeff, self.finite_part
        if q == 0:
            return str(r)
        head = "w" if q == 1 else f"w*{q}"
        return head if r == 0 else f"{head}+{r}"

    def __repr__(self)  -> str:
        return f"TypeIndex({self})"


# One entry per distinct index the process has built: a handful in practice.
_INTERNED: dict = {}


def ordinal(q: int, r: int) -> TypeIndex:
    """The shared TypeIndex for w*q + r."""
    idx = _INTERNED.get((q, r))
    if idx is None:
        idx = _INTERNED[q, r] = TypeIndex(q, r)
    return idx


def fin(n: int) -> TypeIndex:
    return ordinal(0, n)


OMEGA = ordinal(1, 0)

def max_index(a: TypeIndex, b: TypeIndex) -> TypeIndex:
    return a if a >= b else b
