#!/usr/bin/env python3
"""Dump the Q lookup table (center / lower 3 dB per Q) as CSV.

Defaults are the pipeline config's, so the default table is byte for byte the
`qtable.csv` that `bpnet preprocess` exports.  Parameters the table cannot be
built from exit 2 with the reason.
"""

import argparse
import sys

from bpnet.config import PipelineConfig
from bpnet.tqwt import TqwtError, build_q_lookup


def main() -> int:
    defaults = PipelineConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="qtable.csv")
    parser.add_argument("--fs", type=float, default=defaults.fs)
    parser.add_argument("--level", type=int, default=defaults.tqwt_levels)
    parser.add_argument("--q-min", type=float, default=defaults.q_min)
    parser.add_argument("--q-max", type=float, default=defaults.q_max)
    parser.add_argument("--step", type=float, default=defaults.q_step)
    parser.add_argument("--r", type=float, default=defaults.tqwt_r)
    args = parser.parse_args()

    try:
        table = build_q_lookup(args.fs, args.level, args.q_min, args.q_max, args.step, args.r)
    except TqwtError as exc:
        print(f"build_q_table: {exc}", file=sys.stderr)
        return 2
    table.to_csv(args.out)
    print(f"wrote {len(table)} rows to {args.out}")
    for q, c, lo in zip(table.qs[::10], table.centers_hz[::10], table.lower3db_hz[::10]):
        print(f"  Q={q:.2f}  center {c:.4f} Hz  lower3db {lo:.4f} Hz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
