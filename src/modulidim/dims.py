"""Exact or interval-valued dimension counts.

Cohomology dimension rules sometimes pin a value exactly and sometimes only
constrain it. :class:`Dim` represents both outcomes in one immutable value:
an exact nonnegative integer, or a finite interval of candidates. Interval
arithmetic keeps derived quantities honest: sums and products of dimensions
propagate bounds instead of guessing a representative.
"""

from __future__ import annotations

from dataclasses import dataclass


class IndeterminateDimensionError(ValueError):
    """Raised when an exact value is requested from an interval."""


def _as_dim(x: "Dim | int") -> "Dim":
    if isinstance(x, Dim):
        return x
    if isinstance(x, int):
        return Dim.exact(x)
    raise TypeError(f"cannot treat {x!r} as a dimension")


@dataclass(frozen=True)
class Dim:
    """A cohomology dimension: exact, or an interval of candidates.

    ``lower``/``upper`` are finite bounds on the value; equal bounds make it
    exact.
    """

    lower: int
    upper: int

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError(f"dimension lower bound must be >= 0, got {self.lower}")
        if self.upper < self.lower:
            raise ValueError(f"empty dimension interval [{self.lower}, {self.upper}]")

    @staticmethod
    def exact(value: int) -> "Dim":
        return Dim(value, value)

    @property
    def is_exact(self) -> bool:
        return self.upper == self.lower

    @property
    def value(self) -> int:
        """The exact value; raises for a genuine interval."""
        if not self.is_exact:
            raise IndeterminateDimensionError(f"dimension is not exact: {self}")
        return self.lower

    def __add__(self, other: "Dim | int") -> "Dim":
        other = _as_dim(other)
        return Dim(self.lower + other.lower, self.upper + other.upper)

    __radd__ = __add__

    def __mul__(self, other: "Dim | int") -> "Dim":
        other = _as_dim(other)
        return Dim(self.lower * other.lower, self.upper * other.upper)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.is_exact:
            return f"Dim({self.lower})"
        return f"Dim[{self.lower}..{self.upper}]"

    def to_doc(self, provenance: str) -> dict:
        """JSON-ready representation with a provenance marker."""
        if self.is_exact:
            return {"kind": "exact", "value": self.lower, "provenance": provenance}
        return {
            "kind": "interval",
            "lower": self.lower,
            "upper": self.upper,
            "provenance": provenance,
        }
