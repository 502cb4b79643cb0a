"""Ordinal type indices of the form w*q + r.

Every index this workbench needs looks like n, w, w+3 or w*2+1, so a
pair of naturals (q, r) denoting w*q + r covers them all, and the ordinal
order is plain lexicographic order on the pair.  Anything larger (w*w and
beyond) is rejected at parse time (hotk.kernel.parser reads indices).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


@total_ordering
@dataclass(frozen=True)
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
        return TypeIndex(self.omega_coeff, self.finite_part + 1)

    def pred(self) -> "TypeIndex":
        if self.finite_part == 0:
            raise ValueError(f"{self} has no predecessor")
        return TypeIndex(self.omega_coeff, self.finite_part - 1)

    def plus(self, n: int) -> "TypeIndex":
        if n < 0:
            raise ValueError("plus takes a natural")
        return TypeIndex(self.omega_coeff, self.finite_part + n)

    def __lt__(self, other: "TypeIndex") -> bool:
        return (self.omega_coeff, self.finite_part) < (other.omega_coeff, other.finite_part)

    def __str__(self) -> str:
        q, r = self.omega_coeff, self.finite_part
        if q == 0:
            return str(r)
        head = "w" if q == 1 else f"w*{q}"
        return head if r == 0 else f"{head}+{r}"

    def __repr__(self)  -> str:
        return f"TypeIndex({self})"


def fin(n: int) -> TypeIndex:
    return TypeIndex(0, n)


OMEGA = TypeIndex(1, 0)

def max_index(a: TypeIndex, b: TypeIndex) -> TypeIndex:
    return a if a >= b else b


def t_shunt(alpha: TypeIndex) -> TypeIndex:
    """Rank-to-type adjustment: identity below w, successor at w and above."""
    return alpha if alpha.is_finite else alpha.succ()
