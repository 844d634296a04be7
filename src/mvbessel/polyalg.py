"""Exact sparse multivariate polynomial and factored-fraction arithmetic.

All scalars are `fractions.Fraction`; there is no floating point anywhere.
MultiPoly is a sparse exponent-map polynomial, SymPoly stores a symmetric
polynomial as coefficients of the monomial symmetric basis m_lambda, and
FactoredFraction carries intermediates whose denominator is a product of
variable powers x_i^c and pairwise factors (x_i - x_j)^d only.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import NotDivisible, NotSymmetric
from .partitions import Partition

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints/strings like '3/4' to an exact Fraction."""
    return Fraction(x)


def rat_str(x: Fraction) -> str:
    """Serialize a rational as 'p/q', or 'p' when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def accumulate(out: dict, key, c: Fraction) -> None:
    """Add c to out[key], dropping the entry when the sum is zero."""
    s = out.get(key, ZERO) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class MultiPoly:
    """Sparse polynomial in n variables over the rationals."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.n = n
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != n:
                    raise ValueError(f"exponent tuple {exps} has length != {n}")
                c = Fraction(c)
                if c != 0:
                    self.terms[tuple(exps)] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "MultiPoly":
        return cls(n, {(0,) * n: Fraction(c)})

    @classmethod
    def variable(cls, n: int, i: int) -> "MultiPoly":
        """x_i, 1-based."""
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): ONE})

    @classmethod
    def monomial(cls, n: int, exps: Iterable[int], c=1) -> "MultiPoly":
        return cls(n, {tuple(exps): Fraction(c)})

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} != {other.n}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            accumulate(out, e, c)
        r = MultiPoly(self.n)
        r.terms = out
        return r

    def __neg__(self) -> "MultiPoly":
        r = MultiPoly(self.n)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        r = MultiPoly(self.n)
        r.terms = out
        return r

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        r = MultiPoly(self.n)
        if c:
            r.terms = {e: c * v for e, v in self.terms.items()}
        return r

    def deriv(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to x_i (1-based)."""
        out: dict[tuple[int, ...], Fraction] = {}
        k = i - 1
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            ne = list(e)
            ne[k] -= 1
            ne = tuple(ne)
            out[ne] = out.get(ne, ZERO) + c * e[k]
        r = MultiPoly(self.n)
        r.terms = {e: c for e, c in out.items() if c}
        return r

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading term in graded lexicographic order."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def coeff(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), ZERO)

    def evaluate(self, point: Iterable) -> Fraction:
        pt = [Fraction(v) for v in point]
        total = ZERO
        for e, c in self.terms.items():
            v = c
            for x, p in zip(pt, e):
                if p:
                    v *= x**p
            total += v
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.n == other.n and self.terms == other.terms

    # mutable: callers fill terms in place, so a content hash would go stale
    __hash__ = None

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i+1}^{p}" for i, p in enumerate(e) if p) or "1"
            bits.append(f"{rat_str(c)}*{mono}")
        return " + ".join(bits)

    def to_json(self) -> dict[str, str]:
        return {
            "[" + ",".join(map(str, e)) + "]": rat_str(c) for e, c in self.sorted_terms()
        }


def divide_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f / g; raises NotDivisible when a remainder appears.

    Single-divisor reduction in graded-lex order: when f = q*g the leading
    term of every partial remainder is divisible by the leading term of g,
    so a failed leading-term division proves inexactness.  The remainder is
    a dict with its exponents in a max-heap, so each step pops the leading
    term and adds only the products of the other terms of g, all of which
    are smaller; an exponent whose coefficient cancels stays in the heap
    and is skipped when popped.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.n != g.n:
        raise ValueError("variable count mismatch")
    lt_e, lt_c = g.leading()
    g_rest = [(e, c) for e, c in g.terms.items() if e != lt_e]
    r = dict(f.terms)
    heap = [_heap_key(e) for e in r]
    heapq.heapify(heap)
    q: dict[tuple[int, ...], Fraction] = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = r.pop(e, None)
        if c is None:
            continue
        qe = tuple(a - b for a, b in zip(e, lt_e))
        if any(x < 0 for x in qe):
            raise NotDivisible(f"{f!r} is not divisible by {g!r}")
        qc = c / lt_c
        q[qe] = qc
        for ge, gc in g_rest:
            te = tuple(a + b for a, b in zip(qe, ge))
            s = r.get(te, ZERO) - qc * gc
            if not s:
                del r[te]
            else:
                if te not in r:
                    heapq.heappush(heap, _heap_key(te))
                r[te] = s
    out = MultiPoly(f.n)
    out.terms = q
    return out


def _heap_key(e: tuple[int, ...]) -> tuple:
    # heapq pops the least item: negate graded-lex so the leading term comes first
    return ((-sum(e), tuple(-x for x in e)), e)


# -- monomial symmetric polynomials ------------------------------------------

def monomial_symmetric(lam: Partition, n: int) -> MultiPoly:
    """The monomial symmetric polynomial m_lambda in n variables.

    Returns a fresh MultiPoly each call, so callers may modify it.
    """
    if lam.length() > n:
        raise ValueError(f"{lam!r} has more than {n} parts")
    poly = MultiPoly(n)
    poly.terms = dict.fromkeys(_monomial_exponents(lam, n), ONE)
    return poly


@functools.lru_cache(maxsize=4096)
def _monomial_exponents(lam: Partition, n: int) -> tuple[tuple[int, ...], ...]:
    """The distinct permutations of lambda padded to n parts."""
    padded = lam.parts + (0,) * (n - lam.length())
    return tuple(set(itertools.permutations(padded)))


class PartitionVector:
    """Shared arithmetic of the partition-keyed coefficient vectors.

    coeffs maps Partition -> nonzero Fraction.  Subclasses fix the context
    two vectors must share before they are added or compared (_context),
    the message raised when they do not (_mismatch), and the basis letter
    that prefixes each partition in repr (_prefix).  A vector never
    compares equal to one of another type.  It is mutable (callers fill
    coeffs in place), so a content hash can go stale and the base is
    unhashable; SymPoly alone keeps one (see there).
    """

    __slots__ = ("n", "coeffs")
    _mismatch = "variable count mismatch"
    _prefix = ""

    def __init__(self, n: int, coeffs: Mapping[Partition, Fraction] | None = None):
        self.n = n
        self.coeffs: dict[Partition, Fraction] = {}
        if coeffs:
            for lam, c in coeffs.items():
                if lam.length() > n:
                    raise ValueError(f"{lam!r} has more than {n} parts")
                c = Fraction(c)
                if c != 0:
                    self.coeffs[lam] = c

    def _context(self) -> tuple:
        return (self.n,)

    def _new(self, coeffs: dict[Partition, Fraction]) -> "PartitionVector":
        """A vector in this one's context holding coeffs as given."""
        r = type(self)(*self._context())
        r.coeffs = coeffs
        return r

    def __add__(self, other: "PartitionVector") -> "PartitionVector":
        if self._context() != other._context():
            raise ValueError(self._mismatch)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            accumulate(out, lam, c)
        return self._new(out)

    def __neg__(self) -> "PartitionVector":
        return self._new({lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other: "PartitionVector") -> "PartitionVector":
        return self + (-other)

    def scale(self, c) -> "PartitionVector":
        c = Fraction(c)
        return self._new({lam: c * v for lam, v in self.coeffs.items()} if c else {})

    def coeff(self, lam: Partition) -> Fraction:
        return self.coeffs.get(lam, ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((lam.weight() for lam in self.coeffs), default=0)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._context() == other._context()
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def sorted_coeffs(self) -> list[tuple[Partition, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda t: (t[0].weight(), t[0].parts))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{rat_str(c)}*{self._prefix}{list(lam.parts)}" for lam, c in self.sorted_coeffs()
        )

    def to_json(self) -> dict[str, str]:
        return {
            "[" + ",".join(map(str, lam.parts)) + "]": rat_str(c)
            for lam, c in self.sorted_coeffs()
        }


class SymPoly(PartitionVector):
    """Symmetric polynomial stored as Partition -> coefficient in the m basis."""

    __slots__ = ()
    _prefix = "m"

    @classmethod
    def zero(cls, n: int) -> "SymPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "SymPoly":
        return cls(n, {Partition(): Fraction(c)})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, SymPoly):
            return collect_symmetric(self.expand() * other.expand())
        return NotImplemented

    __rmul__ = __mul__

    def expand(self) -> MultiPoly:
        total = MultiPoly.zero(self.n)
        for lam, c in self.coeffs.items():
            total = total + monomial_symmetric(lam, self.n).scale(c)
        return total

    def evaluate(self, point: Iterable) -> Fraction:
        return self.expand().evaluate(point)

    # perfbench/tracer.py counts repeated apply_higher arguments in a set, so
    # SymPoly keeps its content hash until that count no longer hashes it;
    # it goes stale if coeffs is edited while the value sits in a set.
    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))


def collect_symmetric(f: MultiPoly) -> SymPoly:
    """Rewrite an expanded polynomial in the m_lambda basis.

    Raises NotSymmetric when any S_n-orbit of exponent vectors is missing a
    member or carries inconsistent coefficients.
    """
    out: dict[Partition, Fraction] = {}
    seen: set[tuple[int, ...]] = set()
    for e, c in f.terms.items():
        if e in seen:
            continue
        rep = tuple(sorted(e, reverse=True))
        orbit = set(itertools.permutations(e))
        for o in orbit:
            seen.add(o)
            if f.terms.get(o, ZERO) != c:
                raise NotSymmetric(f"orbit of {rep} has inconsistent coefficients")
        out[Partition(rep)] = c
    r = SymPoly(f.n)
    r.coeffs = out
    return r


def elementary(r: int, n: int) -> SymPoly:
    """The elementary symmetric polynomial e_r = m_(1^r) in n variables."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= {n}, got {r}")
    return SymPoly(n, {Partition([1] * r): ONE})


def power_sum(r: int, n: int) -> SymPoly:
    """The power sum p_r = x_1^r + ... + x_n^r = m_(r)."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return SymPoly(n, {Partition([r]): ONE})


# -- factored fractions -------------------------------------------------------


class FactoredFraction:
    """numerator / (prod_i x_i^{c_i} * prod_{i<j} (x_i - x_j)^{d_ij}).

    The denominator never leaves this factored shape; it is exactly the shape
    generated by the recursive construction of the higher eigenoperators.
    """

    __slots__ = ("numer", "var_pows", "pair_pows")

    def __init__(
        self,
        numer: MultiPoly,
        var_pows: tuple[int, ...] | None = None,
        pair_pows: Mapping[tuple[int, int], int] | None = None,
    ):
        self.numer = numer
        n = numer.n
        self.var_pows: tuple[int, ...] = tuple(var_pows) if var_pows else (0,) * n
        if len(self.var_pows) != n or any(c < 0 for c in self.var_pows):
            raise ValueError("bad var_pows")
        pp: dict[tuple[int, int], int] = {}
        if pair_pows:
            for (i, j), d in pair_pows.items():
                if not (1 <= i < j <= n) or d < 0:
                    raise ValueError(f"bad pair key ({i},{j})")
                if d:
                    pp[(i, j)] = d
        self.pair_pows = pp

    @property
    def n(self) -> int:
        return self.numer.n

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "FactoredFraction":
        return cls(p)

    def _pad_numer(self, var_pows, pair_pows) -> MultiPoly:
        """Numerator multiplied up to the given (larger) denominator."""
        n = self.n
        p = self.numer
        for i in range(1, n + 1):
            diff = var_pows[i - 1] - self.var_pows[i - 1]
            if diff:
                p = p * MultiPoly.monomial(n, tuple(diff if k == i - 1 else 0 for k in range(n)))
        for key, d in pair_pows.items():
            diff = d - self.pair_pows.get(key, 0)
            if diff:
                fac = MultiPoly.variable(n, key[0]) - MultiPoly.variable(n, key[1])
                for _ in range(diff):
                    p = p * fac
        return p

    def _common(self, other: "FactoredFraction"):
        var_pows = tuple(max(a, b) for a, b in zip(self.var_pows, other.var_pows))
        keys = set(self.pair_pows) | set(other.pair_pows)
        pair_pows = {k: max(self.pair_pows.get(k, 0), other.pair_pows.get(k, 0)) for k in keys}
        return var_pows, pair_pows

    def __add__(self, other: "FactoredFraction") -> "FactoredFraction":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        var_pows, pair_pows = self._common(other)
        num = self._pad_numer(var_pows, pair_pows) + other._pad_numer(var_pows, pair_pows)
        return FactoredFraction(num, var_pows, pair_pows).simplify()

    def __neg__(self) -> "FactoredFraction":
        return FactoredFraction(-self.numer, self.var_pows, self.pair_pows)

    def __sub__(self, other: "FactoredFraction") -> "FactoredFraction":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FactoredFraction(self.numer.scale(other), self.var_pows, self.pair_pows)
        if isinstance(other, MultiPoly):
            return FactoredFraction(self.numer * other, self.var_pows, self.pair_pows).simplify()
        if isinstance(other, FactoredFraction):
            var_pows = tuple(a + b for a, b in zip(self.var_pows, other.var_pows))
            keys = set(self.pair_pows) | set(other.pair_pows)
            pair_pows = {k: self.pair_pows.get(k, 0) + other.pair_pows.get(k, 0) for k in keys}
            return FactoredFraction(self.numer * other.numer, var_pows, pair_pows).simplify()
        return NotImplemented

    __rmul__ = __mul__

    def div_var(self, i: int, e: int = 1) -> "FactoredFraction":
        """Multiply by x_i^{-e}."""
        vp = list(self.var_pows)
        vp[i - 1] += e
        return FactoredFraction(self.numer, tuple(vp), self.pair_pows).simplify()

    def mul_var(self, i: int, e: int = 1) -> "FactoredFraction":
        """Multiply by x_i^{e}."""
        n = self.n
        mono = MultiPoly.monomial(n, tuple(e if k == i - 1 else 0 for k in range(n)))
        return FactoredFraction(self.numer * mono, self.var_pows, self.pair_pows).simplify()

    def div_pair(self, i: int, j: int) -> "FactoredFraction":
        """Multiply by 1/(x_i - x_j) with i < j; pass j < i for the sign flip."""
        sign = 1
        if i > j:
            i, j = j, i
            sign = -1
        pp = dict(self.pair_pows)
        pp[(i, j)] = pp.get((i, j), 0) + 1
        return FactoredFraction(self.numer.scale(sign), self.var_pows, pp).simplify()

    def deriv(self, i: int) -> "FactoredFraction":
        """Partial derivative with respect to x_i, staying in factored form."""
        n = self.n
        total = FactoredFraction(self.numer.deriv(i), self.var_pows, self.pair_pows)
        c = self.var_pows[i - 1]
        if c:
            vp = list(self.var_pows)
            vp[i - 1] = c + 1
            total = total + FactoredFraction(self.numer.scale(-c), tuple(vp), self.pair_pows)
        for (a, b), d in self.pair_pows.items():
            if i == a:
                sgn = -d
            elif i == b:
                sgn = d
            else:
                continue
            pp = dict(self.pair_pows)
            pp[(a, b)] = d + 1
            total = total + FactoredFraction(self.numer.scale(sgn), self.var_pows, pp)
        return total.simplify()

    def simplify(self) -> "FactoredFraction":
        """Cancel denominator factors that divide the numerator exactly."""
        if self.numer.is_zero():
            return FactoredFraction(MultiPoly.zero(self.n))
        num = self.numer
        vp = list(self.var_pows)
        for i in range(1, self.n + 1):
            if vp[i - 1] == 0:
                continue
            min_e = min(e[i - 1] for e in num.terms)
            drop = min(vp[i - 1], min_e)
            if drop:
                shifted = {}
                for e, c in num.terms.items():
                    ne = list(e)
                    ne[i - 1] -= drop
                    shifted[tuple(ne)] = c
                p = MultiPoly(self.n)
                p.terms = shifted
                num = p
                vp[i - 1] -= drop
        pp = dict(self.pair_pows)
        for key in list(pp):
            fac = MultiPoly.variable(self.n, key[0]) - MultiPoly.variable(self.n, key[1])
            while pp.get(key, 0) > 0:
                try:
                    num = divide_exact(num, fac)
                except NotDivisible:
                    break
                pp[key] -= 1
            if pp.get(key, 0) == 0:
                pp.pop(key, None)
        return FactoredFraction(num, tuple(vp), pp)

    def to_poly(self) -> MultiPoly:
        """Exact reduction to a polynomial; raises NotDivisible otherwise."""
        s = self.simplify()
        if any(s.var_pows) or s.pair_pows:
            raise NotDivisible("denominator does not divide the numerator")
        return s.numer

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self) -> str:
        return f"({self.numer!r}) / (x^{self.var_pows}, pairs {self.pair_pows})"
