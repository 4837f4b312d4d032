#!/usr/bin/env python3
"""How pulse crowding degrades the N=15 probabilistic search.

At the default 30T spacing the pulse windows are disjoint and the run lands on
the exact operator-product value.  Shrinking the spacing makes neighbouring
sech tails overlap, so oracle and reflection drive the chain simultaneously;
the final probability drops well before the transient peak does.  Emits a CSV
of (spacing, final probability, peak probability).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from iongrover.grover import run_search
from iongrover.model import PulseSettings, SearchConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="overlap_study.csv", help="CSV path")
    parser.add_argument("--spacings", type=float, nargs="+",
                        default=[30.0, 20.0, 12.0, 10.0, 8.0, 7.0, 6.0, 5.0, 4.0],
                        help="pulse-center spacings in units of the width")
    args = parser.parse_args()

    lines = ["spacing,final_probability,peak_probability"]
    for spacing in args.spacings:
        cfg = SearchConfig(n_ions=15, marked_index=8, mode="physical",
                           pulse=PulseSettings(spacing=spacing))
        result = run_search(cfg)
        peak = float(np.max(result.trajectory.slots(8)))
        print(f"spacing {spacing:5.1f}T: final {result.success_probability:.5f}"
              f"  peak {peak:.5f}")
        lines.append(",".join(format(v, ".17g")
                              for v in (spacing, result.success_probability, peak)))
    with open(Path(args.out), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
