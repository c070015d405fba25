#!/usr/bin/env python3
"""Cartan-class survey across the classical families.

Prints, for each algebra, the seeded class histogram, the upper bound
n - r + 1, the reference lower bound 2r, and the generic centralizer estimate
of the rank. The quoted sl(4) diagonal-sum form is audited at the end.

Usage: python scripts/survey_classes.py [samples] [seed]
"""

import sys
from fractions import Fraction

from contactforge.liealg import (
    cartan_class,
    cartan_class_wedge,
    class_survey,
    heisenberg_algebra,
    sl_algebra,
    so_algebra,
)


def main(samples: int = 200, seed: int = 0) -> None:
    families = [(sl_algebra(n), n - 1) for n in (2, 3, 4, 5)]
    families += [(so_algebra(n), n // 2) for n in (3, 4, 5, 6)]
    families += [(heisenberg_algebra(n), 1) for n in (3, 5)]
    for g, rank_hint in families:
        survey = class_survey(g, rank_hint, samples, seed)
        parity = (
            "all odd" if survey.parity_all_odd
            else ("mixed" if survey.parity_all_odd is not None else "n/a")
        )
        print(
            f"{g.label:16s} dim {g.dim:2d}  histogram {survey.histogram}  "
            f"bound {survey.upper_bound} ({'ok' if survey.upper_bound_ok else 'VIOLATED'})  "
            f"2r {survey.lower_bound_reference}  parity {parity}  "
            f"rank est {survey.generic_rank_estimate}"
        )

    sl4 = sl_algebra(4)
    ones = tuple(Fraction(int(k < 3)) for k in range(sl4.dim))
    regular = tuple(Fraction(k + 1) if k < 3 else Fraction(0) for k in range(sl4.dim))
    print()
    print("sl(4) audit of the quoted maximal form:")
    print(f"  all-ones diagonal dual sum: class {cartan_class(sl4, ones)} "
          f"(wedge route {cartan_class_wedge(sl4, ones)}; quoted value was 13)")
    print(f"  regular combination 1,2,3:  class {cartan_class(sl4, regular)} "
          f"(the actual maximum 4p^2 - 2p + 1 = 13)")


if __name__ == "__main__":
    args = [int(x) for x in sys.argv[1:3]]
    main(*args)
