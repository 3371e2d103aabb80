"""Print the accumulator's bit-pin tables, BIT_PINS and COUNT_BIT_PINS of
test_cumulants.py, for the code as it stands.

Run from the root of a source checkout:

    PYTHONPATH=src:tests python tests/pin_digests.py

Each case keeps its shape and chunk bounds; only the two digests are
recomputed, the same way the pin tests compute them (on one OpenBLAS
thread).  Re-pin only after showing that the new sums agree with the old
ones to rounding: the digests catch any change, not a wrong one.
"""

import hashlib
import sys

from poissonize import cli
from poissonize.cumulants import MomentAccumulator, assemble_flat_cumulant
from poissonize.distributions import SeededRng

from test_cumulants import BIT_PINS, COUNT_BIT_PINS, poisson_rows


def digests(dim, order, bounds, count_last, blas):
    """The sha256 of the sums and of the assembled orders 1..order in turn."""
    rng = SeededRng(dim * 10 + order)
    data = poisson_rows(rng, bounds[-1], dim, count_last=count_last)
    acc = MomentAccumulator(dim, order, shift=data[:1000].mean(axis=0), count_last=count_last)
    with cli._one_blas_thread(blas):
        for start, stop in zip(bounds[:-1], bounds[1:]):
            acc.update(data[start:stop])
    assembled = hashlib.sha256()
    for ell in range(1, order + 1):
        assembled.update(assemble_flat_cumulant(acc, ell).data.tobytes())
    return hashlib.sha256(acc.sums.tobytes()).hexdigest(), assembled.hexdigest()


def main():
    blas = cli._openblas_thread_controls()
    if not blas:
        sys.exit("pin_digests: no OpenBLAS thread controls found; the pins need one thread")
    for name, cases, count_last in (("BIT_PINS", BIT_PINS, False),
                                    ("COUNT_BIT_PINS", COUNT_BIT_PINS, True)):
        print(f"{name} = [")
        for dim, order, bounds, *_ in cases:
            sums, assembled = digests(dim, order, bounds, count_last, blas)
            cuts = ", ".join(f"{bound:_}" for bound in bounds)
            print(f"    ({dim}, {order}, ({cuts}),")
            print(f'     "{sums}",')
            print(f'     "{assembled}"),')
        print("]")


if __name__ == "__main__":
    main()
