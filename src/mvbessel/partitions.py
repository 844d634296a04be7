"""Partition combinatorics: conjugation, orderings, co-covers, skew chains.

FrozenRecord is the one immutable value base of the package: Partition,
the sparse vectors of polyalg, polyalg.Affine and the parameter and result
records of bessel, jacobi_bc and orthogonality derive from it, so none of
them can be assigned or deleted, and each copies and pickles through its
field values.  HashedRecord adds a slot that stores the hash, for
bessel.BesselParams, the key of every cache that takes the parameters.
Partitions are such values; trailing zeros are stripped at construction so
that (2,1) and (2,1,0,0) are the same object.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from math import factorial


class FrozenRecord:
    """An immutable value whose fields are its __slots__, in order.

    __init__ takes the field values in order, and _values() gives them as a
    tuple, a 1-tuple for a one-field record, read by the one
    operator.attrgetter that each subclass builds for its own __slots__.
    Two records are equal, and hash alike, when they have the same type and
    _values(), hashed on each call.  copy and pickle rebuild a record as
    type(record)(*record._values()), so a subclass whose __init__ takes
    other arguments, or whose field is a mapping, defines its own _values.
    Assigning or deleting an attribute raises AttributeError.  The repr is
    Name(field=value, ...).
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:
            get = operator.attrgetter(*names)
            cls._fields = staticmethod(lambda record: (get(record),))
        else:
            cls._fields = staticmethod(operator.attrgetter(*names) if names else lambda record: ())

    def _values(self) -> tuple:
        return self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class HashedRecord(FrozenRecord):
    """A FrozenRecord that stores its hash on first use, for a cache key."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._values())
            object.__setattr__(self, "_hash", h)
            return h


class Partition(FrozenRecord):
    """A weakly decreasing sequence of non-negative integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = list(parts)
        for p in ps:
            if not isinstance(p, int) or p < 0:
                raise ValueError(f"partition parts must be non-negative integers, got {p!r}")
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {ps}")
        while ps and ps[-1] == 0:
            ps.pop()
        object.__setattr__(self, "parts", tuple(ps))

    # -- basic queries ------------------------------------------------------

    def weight(self) -> int:
        return sum(self.parts)

    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based, zero beyond the length."""
        if i < 1:
            raise IndexError("rows are 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        """Reflection of the diagram in the main diagonal."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        """True iff other's diagram fits inside this one (other ⊆ self)."""
        return all(other.part(i) <= self.part(i) for i in range(1, other.length() + 1))

    # -- co-covers ----------------------------------------------------------

    def add_box(self, i: int) -> "Partition | None":
        """Partition with one box added in row i (1-based), or None."""
        if i < 1:
            return None
        new = list(self.parts) + [0] * max(0, i - len(self.parts))
        new[i - 1] += 1
        if i > 1 and new[i - 2] < new[i - 1]:
            return None
        return Partition(new)

    def remove_box(self, i: int) -> "Partition | None":
        """Partition with one box removed from row i (1-based), or None."""
        if i < 1 or i > len(self.parts):
            return None
        new = list(self.parts)
        new[i - 1] -= 1
        if new[i - 1] < 0 or (i < len(new) and new[i - 1] < new[i]):
            return None
        return Partition(new)

    # -- dunder plumbing ----------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        # graded lexicographic order; a linear extension of dominance
        return (self.weight(), self.parts) < (other.weight(), other.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """True iff |mu| = |lam| and every prefix sum of mu is <= that of lam."""
    if mu.weight() != lam.weight():
        return False
    s_mu = s_lam = 0
    for i in range(1, max(mu.length(), lam.length()) + 1):
        s_mu += mu.part(i)
        s_lam += lam.part(i)
        if s_mu > s_lam:
            return False
    return True


def co_covers(lam: Partition, n: int, direction: str) -> list[tuple[int, Partition]]:
    """All (row, partition) pairs obtained by adding or removing one box.

    For direction "up" only rows 1..n are considered, so the result stays
    within partitions of length at most n.
    """
    out: list[tuple[int, Partition]] = []
    if direction == "up":
        for i in range(1, n + 1):
            nu = lam.add_box(i)
            if nu is not None:
                out.append((i, nu))
    elif direction == "down":
        for i in range(1, lam.length() + 1):
            nu = lam.remove_box(i)
            if nu is not None:
                out.append((i, nu))
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    return out


def skew_standard_chains(lam: Partition, mu: Partition) -> list[list[Partition]]:
    """All chains lam ⊃ ... ⊃ mu removing one box per step.

    Chains are returned in lexicographic order of the removed-row sequences
    (the enumeration is depth-first over removable corners in row order).
    Raises ValueError if mu is not contained in lam.
    """
    if not lam.contains(mu):
        raise ValueError(f"{mu!r} is not contained in {lam!r}")
    chains: list[list[Partition]] = []

    def descend(current: Partition, acc: list[Partition]) -> None:
        if current == mu:
            chains.append(acc.copy())
            return
        for _, nu in co_covers(current, current.length(), "down"):
            if nu.contains(mu):
                acc.append(nu)
                descend(nu, acc)
                acc.pop()

    descend(lam, [lam])
    return chains


def standard_tableaux_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    conj = lam.conjugate()
    num = factorial(lam.weight())
    den = 1
    for i in range(1, lam.length() + 1):
        for j in range(1, lam.part(i) + 1):
            den *= (lam.part(i) - j) + (conj.part(j) - i) + 1
    return num // den


def partitions_of(weight: int, max_length: int, max_part: int | None = None) -> list[Partition]:
    """All partitions of the given weight with at most max_length parts."""
    if max_part is None:
        max_part = weight
    out: list[Partition] = []

    def build(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(Partition(acc))
            return
        if len(acc) >= max_length:
            return
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            build(remaining - p, p, acc)
            acc.pop()

    build(weight, max_part, [])
    return out


def partitions_up_to(max_weight: int, max_length: int) -> list[Partition]:
    """All partitions with weight <= max_weight and length <= max_length,
    in increasing (weight, lexicographic) order."""
    out: list[Partition] = []
    for w in range(max_weight + 1):
        out.extend(sorted(partitions_of(w, max_length), key=lambda p: p.parts))
    return out


def partitions_in_box(max_part: int, max_length: int) -> list[Partition]:
    """All partitions fitting inside a max_length x max_part box."""
    out: list[Partition] = []
    for w in range((max_part * max_length) + 1):
        out.extend(partitions_of(w, max_length, max_part))
    return out
