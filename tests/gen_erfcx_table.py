"""Generate ``src/citefit/_erfcx_table.py``, the coefficient table behind
``citefit.numerics.erfcx``.

Usage (from the repository root)::

    python tests/gen_erfcx_table.py

``test_numerics.py`` checks that the checked-in table is what this writes.

With ``y = 4 / (4 + x)`` the function ``erfcx(x) / y`` is smooth on
``0 <= y <= 1`` (its limit at ``y = 0``, ``x = inf``, is ``1 / (4 sqrt(pi))``),
the substitution of S. G. Johnson's Faddeeva package.  The range of
``t = INTERVALS * y`` is cut into unit intervals ``[i, i + 1]``; on each,
``erfcx(x) / t`` is interpolated in ``v = t - i`` by a polynomial of degree
``DEGREE`` through the Chebyshev points, solved in mpmath arithmetic and
rounded to doubles, so that ``erfcx(x) = t * sum_k C[k][i] v**k``.  Row
``i = INTERVALS`` serves ``x = 0`` alone.  ``INTERVALS`` is a power of two, so
``t``, ``i`` and ``v`` carry no rounding beyond that of ``y``.
"""

import os
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]
from oracles import erfcx_oracle  # noqa: E402

TARGET = os.path.join(SRC, "citefit", "_erfcx_table.py")
INTERVALS = 256
DEGREE = 5
DPS = 40


def coefficients() -> list[list[float]]:
    """``C[k][i]``: the coefficient of ``v**k`` on interval ``i``."""
    with mp.workdps(DPS):
        nodes = [(1 - mp.cos((2 * j + 1) * mp.pi / (2 * (DEGREE + 1)))) / 2
                 for j in range(DEGREE + 1)]
        vandermonde = mp.matrix([[v ** k for k in range(DEGREE + 1)] for v in nodes])
        table = [[] for _ in range(DEGREE + 1)]
        for i in range(INTERVALS + 1):
            values = []
            for v in nodes:
                t = i + v
                values.append(erfcx_oracle(4 * INTERVALS / t - 4, DPS) / t)
            solved = mp.lu_solve(vandermonde, mp.matrix(values))
            for k in range(DEGREE + 1):
                table[k].append(float(solved[k]))
    return table


def render() -> str:
    rows = []
    for k, column in enumerate(coefficients()):
        rows.append(f"    (  # v**{k}\n")
        rows += [f"        {c!r},\n" for c in column]
        rows.append("    ),\n")
    return (
        '"""Generated by tests/gen_erfcx_table.py; do not edit.\n\n'
        "``COEFFS[k][i]`` multiplies ``v**k`` on interval ``i`` of "
        "``citefit.numerics.erfcx``.\n"
        '"""\n\n'
        f"INTERVALS = {INTERVALS}\n\n"
        "COEFFS = (\n" + "".join(rows) + ")\n"
    )


if __name__ == "__main__":
    with open(TARGET, "w", encoding="utf-8") as fh:
        fh.write(render())
