"""Compare two records written by run.py (in .perfbench_out/).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's two values and their ratio. Refuses, with exit code
2, records of different workloads or trace modes, and records measured
with a different kernel backend or BLAS thread count.
"""

import json
import sys

from provenance import incomparable


def compare(base, new):
    """Rows (metric, unit, base, new, new/base); raises ValueError when the
    two records must not be compared."""
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            raise ValueError(f"{key} differs: {base[key]!r} vs {new[key]!r}")
    differ = incomparable(base["provenance"], new["provenance"])
    if differ:
        raise ValueError(", ".join(
            f"{k} differs: {base['provenance'].get(k)!r} vs "
            f"{new['provenance'].get(k)!r}" for k in differ))
    rows = []
    for name, old in base["metrics"].items():
        value = new["metrics"].get(name, {}).get("value")
        ratio = value / old["value"] if value is not None and old["value"] else None
        rows.append((name, old["unit"], old["value"], value, ratio))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    try:
        rows = compare(*records)
    except ValueError as err:
        print(f"error: not comparable: {err}", file=sys.stderr)
        return 2
    print(f"{'metric':36s} {'unit':6s} {'base':>12s} {'new':>12s} {'new/base':>9s}")
    for name, unit, old, value, ratio in rows:
        shown = "missing" if value is None else f"{value:12.5g}"
        ratio = "" if ratio is None else f"{ratio:9.3f}"
        print(f"{name:36s} {unit:6s} {old:12.5g} {shown:>12s} {ratio:>9s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
