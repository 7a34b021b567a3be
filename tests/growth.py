"""CPU-time growth of a function with the size of its input."""

from __future__ import annotations

import time


def growth(make, run, n: int | None = None) -> float:
    """CPU time of ``run(make(8 * n))`` over ``run(make(n))``, best of 3 each.

    Without ``n``, n is doubled from 64 until ``run(make(n))`` takes at least
    10 ms. Linear work grows about 8x and quadratic work about 64x.
    """
    def best(data) -> float:
        times = []
        for _ in range(3):
            started = time.process_time()
            run(data)
            times.append(time.process_time() - started)
        return min(times)

    if n is None:
        n = 64
        while (small := best(make(n))) < 0.010:
            n *= 2
    else:
        small = best(make(n))
    return best(make(8 * n)) / small
