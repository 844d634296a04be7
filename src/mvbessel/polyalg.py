"""Exact sparse polynomial arithmetic on the monomial symmetric basis.

All scalars are `fractions.Fraction`; there is no floating point anywhere.
SparseVector is the one sparse coefficient-vector arithmetic (add, scale,
compare, order, serialize).  SymPoly (the monomial symmetric basis m_lambda)
and jack.JackExpansion (the Jack basis P_lambda) are keyed by partitions,
through PartitionVector.  orbit is the one table of S_n orbits, the
exponents of each m_lambda; orbit_size counts one without listing it.

apply_equivariant is the one kernel of S_n-equivariant linear maps on the m
basis: the diffops operators and the SymPoly product act on one exponent
per partition, so no production path expands a SymPoly into monomials.

common_denominator is the one step shared by the exact integer kernels
(apply_equivariant, the operators tower, the orthogonality moments): it
puts a list of rationals over the lcm d of their denominators, so a kernel
sums integers and divides once per output.

limit_at_zero is the one exact-limit mechanism: every closed product that
can meet 0/0 is a list of Affine factors c + s*t, taken at t = 0 along a
line or, with slope 0, at a point.  leading_term gives one product's order
in t and leading coefficient as integers: the value of an order-0 term, and
what the Pieri coefficients cache per factor group.

Every value type is immutable: SparseVector and Affine derive, like
Partition and the records of bessel, jacobi_bc and orthogonality, from the
one value base partitions.FrozenRecord, which refuses assignment and
deletion, and a SparseVector's coeffs is a read-only mapping.  So a vector
hashes by its content, and the one cache policy is that a cache returns its
value as it is: no caller can change it.  A cache that holds a mapping
holds a read-only one built whole, which no read fills (a Jack raising
row, the Pieri factor groups), down to their Affine factors; a cached
table is built whole, of tuples only (the Pieri moves of each (n, r)).
All scalars enter through rational, which refuses a float.

The last section, with SymPoly.expand, is test-oracle arithmetic: MultiPoly
keyed by exponent tuples, divide_exact, collect_symmetric and
FactoredFraction (the tower's two-branch recursion).  Nothing in the
package calls it; it stays because the tests check the kernel and the tower
against it and perfbench/tracer.py names its functions.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from types import MappingProxyType

from .errors import NotDivisible, NotSymmetric, PoleError
from .partitions import FrozenRecord, Partition

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(x) -> Fraction:
    """x as a Fraction (x itself when it is one).  A float is refused with
    TypeError: its binary value, 3602879701896397/36028797018963968 for 0.1,
    is not the rational that was meant."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; pass an int, a Fraction or a 'p/q' string")
    return Fraction(x)


def common_denominator(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(d, [v d for v in values]), d the lcm of the denominators (1 for no
    values): the values as integers over one common denominator."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


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


class SparseVector(FrozenRecord):
    """Shared arithmetic of the sparse coefficient vectors.

    coeffs is a read-only mapping from a key to a nonzero Fraction.
    MultiPoly keys it by exponent tuples; PartitionVector, the base of
    SymPoly and jack.JackExpansion, by partitions.  A subclass supplies the
    hooks: _key checks and normalises one key, _weight is its degree, _label
    names it in repr, _context is what two vectors must share before they
    are combined or compared, and _mismatch is the message raised when they
    do not.  The order (weight, key) is graded-lex for both key kinds.  A
    vector never compares equal to one of another type.  It is a
    FrozenRecord with a content hash, and its _values, the context and the
    coefficients, rebuild it through __init__.
    """

    __slots__ = ("n", "coeffs")
    _mismatch = "variable count mismatch"

    def __init__(self, n: int, coeffs: Mapping | None = None):
        object.__setattr__(self, "n", n)
        checked: dict = {}
        if coeffs:
            for key, c in coeffs.items():
                key = self._key(key)
                c = rational(c)
                if c != 0:
                    checked[key] = c
        object.__setattr__(self, "coeffs", MappingProxyType(checked))

    def _values(self) -> tuple:
        return (*self._context(), dict(self.coeffs))

    def _context(self) -> tuple:
        return (self.n,)

    def _new(self, coeffs: dict):
        """A vector in this one's context holding coeffs, checked keys to
        nonzero Fractions, as given."""
        r = type(self)(*self._context())
        object.__setattr__(r, "coeffs", MappingProxyType(coeffs))
        return r

    def _check(self, other: "SparseVector") -> None:
        if type(other) is not type(self) or self._context() != other._context():
            raise ValueError(self._mismatch)

    def _order(self, key) -> tuple:
        return (self._weight(key), tuple(key))

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            accumulate(out, key, c)
        return self._new(out)

    def __neg__(self):
        return self._new({key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = rational(c)
        return self._new({key: c * v for key, v in self.coeffs.items()} if c else {})

    def coeff(self, key) -> Fraction:
        return self.coeffs.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(map(self._weight, self.coeffs), default=0)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._context() == other._context()
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self._context(), frozenset(self.coeffs.items())))

    def sorted_coeffs(self) -> list:
        return sorted(self.coeffs.items(), key=lambda t: self._order(t[0]))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{rat_str(c)}*{self._label(key)}" for key, c in self.sorted_coeffs())

    def to_json(self) -> dict[str, str]:
        return {"[" + ",".join(map(str, key)) + "]": rat_str(c) for key, c in self.sorted_coeffs()}


# -- monomial symmetric polynomials ------------------------------------------

@functools.lru_cache(maxsize=4096)
def orbit(lam: Partition, n: int) -> tuple[tuple[int, ...], ...]:
    """The S_n orbit of lambda: its distinct permutations padded to n parts,
    which are the exponents of m_lambda in n variables."""
    if lam.length() > n:
        raise ValueError(f"{lam!r} has more than {n} parts")
    padded = lam.parts + (0,) * (n - lam.length())
    return tuple(set(itertools.permutations(padded)))


def orbit_size(lam: Partition, n: int) -> int:
    """len(orbit(lam, n)) = n!/((n-l)! prod_i m_i!), l = len(lam), m_i the
    multiplicity of the part i: counted without listing the orbit."""
    if lam.length() > n:
        raise ValueError(f"{lam!r} has more than {n} parts")
    count = math.factorial(n) // math.factorial(n - lam.length())
    return count // math.prod(math.factorial(lam.parts.count(x)) for x in set(lam.parts))


class PartitionVector(SparseVector):
    """A SparseVector keyed by partitions of at most n parts.

    Subclasses fix the basis letter that prefixes each partition in repr
    (_prefix).
    """

    __slots__ = ()
    _prefix = ""
    _weight = staticmethod(Partition.weight)

    def _key(self, lam: Partition) -> Partition:
        if not isinstance(lam, Partition):
            raise ValueError(f"key {lam!r} is not a Partition")
        if lam.length() > self.n:
            raise ValueError(f"{lam!r} has more than {self.n} parts")
        return lam

    def _label(self, lam: Partition) -> str:
        return f"{self._prefix}{list(lam.parts)}"


class SymPoly(PartitionVector):
    """Symmetric polynomial stored as Partition -> coefficient in the m basis."""

    __slots__ = ()
    _prefix = "m"

    @classmethod
    def zero(cls, n: int) -> "SymPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "SymPoly":
        return cls(n, {Partition(): c})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, SymPoly):
            self._check(other)
            small, big = sorted((self, other), key=lambda v: len(v.coeffs))
            return apply_equivariant(big, [(c, [("mul", a, 1)]) for a, c in small.coeffs.items()])
        return NotImplemented

    __rmul__ = __mul__

    def expand(self) -> MultiPoly:
        # test oracle only; distinct partitions have disjoint orbits, so no collision
        return MultiPoly(self.n)._new(
            {e: c for lam, c in self.coeffs.items() for e in orbit(lam, self.n)}
        )


# -- the one kernel of S_n-equivariant maps on the m basis --------------------


def apply_equivariant(f: SymPoly, groups: list[tuple[Fraction, list[tuple]]]) -> SymPoly:
    """sum over groups (scale, terms) of scale * (the terms applied to f).

    A term, w an integer, is ("d2", k, w): w sum_i x_i^k d^2/dx_i^2;
    ("d1", k, w): w sum_i x_i^k d/dx_i; ("pair", k, w): w sum_{i != j}
    x_i^k/(x_i - x_j) d/dx_i; or ("mul", alpha, w): w m_alpha times.  As F
    commutes with S_n, [m_lambda] F(m_mu) = |O(mu)|/|O(lambda)| sum_{beta
    sorting to lambda} [x^beta] F(x^mu), O the S_n orbit, so F acts on one
    exponent mu per partition; m_alpha x^mu = sum_{beta in O(alpha)}
    x^(mu + beta), and each ordered pair i != j takes the pair term's half
    1/2 mu_i Q(mu_i + k - 1, mu_j) x^rest, with the geometric sum Q(p, q) =
    (x_i^p x_j^q - x_i^q x_j^p)/(x_i - x_j).  The coefficients of f and the
    group scales are put over their common denominators (common_denominator),
    so the counts are integers, one map per group, and each output one Fraction.
    """
    n = f.n
    den, scaled = common_denominator(f.coeffs.values())
    accs: list[dict] = [{} for _ in groups]
    flat = [(kind, k, w, acc) for (_, terms), acc in zip(groups, accs) for kind, k, w in terms]
    # every count is doubled, so that the pair term's half stays an integer
    singles = [(kind == "d2", k, 2 * w, acc) for kind, k, w, acc in flat if kind in ("d2", "d1")]
    pairs = [(k - 1, w, acc) for kind, k, w, acc in flat if kind == "pair"]
    muls = [(orbit(alpha, n), 2 * w, acc) for kind, alpha, w, acc in flat if kind == "mul"]
    for mu, c in zip(f.coeffs, scaled):
        c *= orbit_size(mu, n)
        e = mu.parts + (0,) * (n - mu.length())
        for betas, w, acc in muls:
            for beta in betas:
                key = tuple(sorted([a + b for a, b in zip(e, beta)], reverse=True))
                acc[key] = acc.get(key, 0) + w * c
        x = list(e)
        for i, ai in enumerate(mu.parts):
            for second, k, w, acc in singles:
                if ai > second:
                    x[i] = ai - 1 - second + k
                    key = tuple(sorted(x, reverse=True))
                    acc[key] = acc.get(key, 0) + w * c * ai * (ai - 1 if second else 1)
            x[i] = ai
            for j, aj in enumerate(e):
                if j == i:
                    continue
                for shift, w, acc in pairs:
                    p = ai + shift
                    lo, hi, v = (aj, p, w * c * ai) if p > aj else (p, aj, -w * c * ai)
                    for t in range(lo, hi):
                        x[i], x[j] = t, p + aj - 1 - t
                        key = tuple(sorted(x, reverse=True))
                        acc[key] = acc.get(key, 0) + v
                x[i], x[j] = ai, aj
    q, nums = common_denominator(rational(s) for s, _ in groups)
    out = {}
    for key in {key for acc in accs for key in acc}:
        total = sum(m * acc.get(key, 0) for m, acc in zip(nums, accs))
        if total:
            lam = Partition(key)
            out[lam] = Fraction(total, 2 * q * den * orbit_size(lam, n))
    return f._new(out)


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


# -- exact limits of affine factor products -----------------------------------


class Affine(FrozenRecord):
    """c + s*t, one factor of a closed product along a line through t = 0.

    Closed under the sums and scalar multiples that the factors are built
    from; Affine(x, 0) is the plain value x at a point.  A FrozenRecord, so
    the cached factor groups that hold it cannot be edited.
    """

    __slots__ = ("c", "s")

    def __init__(self, c, s=ZERO):
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)

    def __add__(self, other):
        if isinstance(other, Affine):
            return Affine(self.c + other.c, self.s + other.s)
        return Affine(self.c + other, self.s)

    __radd__ = __add__

    def __neg__(self):
        return Affine(-self.c, -self.s)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, k):
        return Affine(self.c * k, self.s * k)

    __rmul__ = __mul__


def join(*groups):
    """One (numerator, denominator) factor group from several."""
    return tuple(f for g in groups for f in g[0]), tuple(f for g in groups for f in g[1])


def leading_term(num, den) -> tuple[int, int, int]:
    """(order, top, bottom) with prod(num)/prod(den) = top/bottom t^order +
    O(t^(order+1)) as t -> 0: order counts the zero-constant factors up
    minus those down, and top/bottom multiplies out each factor's c, or its
    s where c = 0, over the integers.  bottom is 0 exactly when a
    denominator factor vanishes identically (c = s = 0)."""
    order, top, bottom = 0, 1, 1
    for f in num:
        x = f.c
        if not x:
            order += 1
            x = f.s
        top *= x.numerator
        bottom *= x.denominator
    for f in den:
        x = f.c
        if not x:
            order -= 1
            x = f.s
        top *= x.denominator
        bottom *= x.numerator
    return order, top, bottom


def limit_at_zero(terms, pole: str = "pole at t = 0") -> Fraction:
    """The value at t = 0 of a sum of products of Affine factors.

    Each term is a pair (numerator factors, denominator factors).  A term
    of order 0 (leading_term) contributes its leading coefficient, the
    plain product of its constants if no constant is zero.  A term of order
    -m < 0 is t^-m R(t) with R(0) != 0, so R is expanded only to degree m;
    the Laurent coefficients of t^-m ... t^0 are summed over all terms.
    Raises PoleError(pole) on a denominator factor that vanishes identically
    (c = s = 0, so slope-0 factors give the plain value at a point, or a
    pole), and if a negative-order coefficient survives the sum.
    """
    laurent: dict[int, Fraction] = {0: ZERO}
    for num, den in terms:
        order, top, bottom = leading_term(num, den)
        if not bottom:
            raise PoleError(pole)
        if not order:
            laurent[0] += Fraction(top, bottom)
        if order >= 0:
            continue
        series = [ONE] + [ZERO] * -order
        for f in num:
            if f.c == 0:
                series = [x * f.s for x in series]
            else:
                series = [f.c * x + f.s * y for x, y in zip(series, [ZERO] + series)]
        for f in den:
            if f.c == 0:
                series = [x / f.s for x in series]
            else:
                quotient: list[Fraction] = []
                for x in series:
                    quotient.append((x - f.s * quotient[-1]) / f.c if quotient else x / f.c)
                series = quotient
        for k, x in enumerate(series, start=order):
            laurent[k] = laurent.get(k, ZERO) + x
    if any(x for k, x in laurent.items() if k < 0):
        raise PoleError(pole)
    return laurent[0]


# -- test-oracle arithmetic on expanded polynomials (see the module docstring) -

class MultiPoly(SparseVector):
    """Sparse polynomial in n variables over the rationals, keyed by exponent tuples."""

    __slots__ = ()
    _weight = staticmethod(sum)

    def _key(self, exps) -> tuple[int, ...]:
        if len(exps) != self.n:
            raise ValueError(f"exponent tuple {exps} has length != {self.n}")
        if not all(isinstance(p, int) and p >= 0 for p in exps):
            raise ValueError(f"exponents must be non-negative integers, got {exps}")
        return tuple(exps)

    @staticmethod
    def _label(exps: tuple[int, ...]) -> str:
        return "*".join(f"x{i+1}^{p}" for i, p in enumerate(exps) if p) or "1"

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "MultiPoly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "MultiPoly":
        """x_i, 1-based."""
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): ONE})

    @classmethod
    def monomial(cls, n: int, exps: Iterable[int], c=1) -> "MultiPoly":
        return cls(n, {tuple(exps): c})

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                accumulate(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return self._new(out)

    __rmul__ = __mul__

    def deriv(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to x_i (1-based)."""
        k = i - 1
        # lowering e_k is one-to-one on the terms with e_k > 0, so nothing
        # collides or cancels
        return self._new(
            {e[:k] + (e[k] - 1,) + e[i:]: c * e[k] for e, c in self.coeffs.items() if e[k]}
        )

    # -- queries -------------------------------------------------------------

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading term in graded lexicographic order."""
        e = max(self.coeffs, key=self._order)
        return e, self.coeffs[e]

    def coeff(self, exps: Iterable[int]) -> Fraction:
        return self.coeffs.get(tuple(exps), ZERO)

    def evaluate(self, point: Iterable) -> Fraction:
        pt = [rational(v) for v in point]
        if len(pt) != self.n:
            raise ValueError(f"point has {len(pt)} coordinates, expected {self.n}")
        total = ZERO
        for e, c in self.coeffs.items():
            v = c
            for x, p in zip(pt, e):
                if p:
                    v *= x**p
            total += v
        return total


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
    f._check(g)
    lt_e, lt_c = g.leading()
    g_rest = [(e, c) for e, c in g.coeffs.items() if e != lt_e]
    r = dict(f.coeffs)
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
    return f._new(q)


def _heap_key(e: tuple[int, ...]) -> tuple:
    # heapq pops the least item: negate graded-lex so the leading term comes first
    return ((-sum(e), tuple(-x for x in e)), e)


def collect_symmetric(f: MultiPoly) -> SymPoly:
    """Rewrite an expanded polynomial in the m_lambda basis.

    Raises NotSymmetric when any S_n-orbit of exponent vectors is missing a
    member or carries inconsistent coefficients.
    """
    out: dict[Partition, Fraction] = {}
    seen: set[tuple[int, ...]] = set()
    for e, c in f.coeffs.items():
        if e in seen:
            continue
        rep = tuple(sorted(e, reverse=True))
        lam = Partition(rep)
        for o in orbit(lam, f.n):
            seen.add(o)
            if f.coeffs.get(o, ZERO) != c:
                raise NotSymmetric(f"orbit of {rep} has inconsistent coefficients")
        out[lam] = c
    return SymPoly(f.n, out)


class FactoredFraction:
    """numerator / (prod_i x_i^{c_i} * prod_{i<j} (x_i - x_j)^{d_ij}).

    The denominator never leaves this factored shape; it is exactly the shape
    generated by the two-branch recursion of the higher eigenoperators, whose
    test oracle is the one user.  Every operation cancels what it can again
    (simplify), and to_poly insists that nothing is left.
    """

    __slots__ = ("numer", "var_pows", "pair_pows")
    # fields can be reassigned and pair_pows is a dict, so no content hash
    __hash__ = None

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
        return NotImplemented

    def div_var(self, i: int, e: int = 1) -> "FactoredFraction":
        """Multiply by x_i^{-e}."""
        vp = list(self.var_pows)
        vp[i - 1] += e
        return FactoredFraction(self.numer, tuple(vp), self.pair_pows).simplify()

    def mul_var(self, i: int) -> "FactoredFraction":
        """Multiply by x_i."""
        return self * MultiPoly.variable(self.n, i)

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
            min_e = min(e[i - 1] for e in num.coeffs)
            drop = min(vp[i - 1], min_e)
            if drop:
                shifted = {}
                for e, c in num.coeffs.items():
                    ne = list(e)
                    ne[i - 1] -= drop
                    shifted[tuple(ne)] = c
                num = num._new(shifted)
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
