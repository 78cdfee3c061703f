"""The ADR forward in exact rational arithmetic: the oracle of ``metrics``' rounding bounds.

Every float is a dyadic rational, so ``fractions.Fraction`` holds each
delay, weight and window exactly, and the fan-in divide ``/ n``, the sums
and the special ReLU ``max(z, 0) + T`` are exact too.  :func:`forward`
gives the exact outputs from which ``metrics._output_bounds`` bounds the
distance of every float32 and float64 output.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def forward(net, x) -> list[list[Fraction]]:
    """The exact outputs of ``net`` for the rows ``x``, of any real dtype."""
    window = Fraction(net.window)
    rows = [[Fraction(v) for v in row] for row in np.asarray(x).tolist()]
    for w in net.weights:
        n = len(w)
        columns = [[Fraction(v) for v in column] for column in w.T.tolist()]
        rows = [[max(sum(a * b for a, b in zip(row, column)) / n, Fraction(0)) + window
                 for column in columns] for row in rows]
    return rows
