"""The reference task: a fixed computation whose wall time measures how fast
the machine runs the benchmark's kind of work at this moment.

    python3 perfbench/reference.py

It multiplies two dense sparse-dict polynomials in three variables with
``Fraction`` coefficients, the kind of arithmetic ``mvbessel`` spends its time
in, and prints a checksum of the product.  It imports nothing from
``mvbessel``, so no change to the program changes its cost.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# Printed by a correct run: the number of terms of the product and the sum of
# its coefficients.
EXPECTED = "969 7016137/100\n"


def dense(deg: int, shift: int) -> dict[tuple[int, ...], Fraction]:
    """All monomials of degree at most ``deg`` in three variables, with fixed
    small rational coefficients."""
    return {
        e: Fraction((7 * sum(e) + shift) % 11 + 1, (3 * e[0] + shift) % 5 + 2)
        for e in itertools.product(range(deg + 1), repeat=3)
        if sum(e) <= deg
    }


def mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def main() -> str:
    product = mul(dense(8, 1), dense(8, 2))
    return f"{len(product)} {sum(product.values())}\n"


if __name__ == "__main__":
    print(main(), end="")
