"""Compare two saved outputs of run.py, metric by metric.

    python3 perfbench/run.py --workload fringe --seed 1 --seconds 25 > a.txt
    ... (other commit) ... > b.txt
    python3 perfbench/compare.py a.txt b.txt

Prints each metric of both runs and their ratio, and flags every
difference in the environment stamp, a kernel-backend difference first:
timings taken on two backends do not compare.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> tuple[dict, dict]:
    """The details and the result object, the last two lines of an output."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (old_d, old_r), (new_d, new_r) = load(argv[0]), load(argv[1])
    if old_d["env"]["backend"] != new_d["env"]["backend"]:
        print(f"BACKEND DIFFERS: {old_d['env']['backend']} -> "
              f"{new_d['env']['backend']}")
    for key in sorted(set(old_d["env"]) | set(new_d["env"])):
        a, b = old_d["env"].get(key), new_d["env"].get(key)
        if a != b and key != "backend":
            print(f"env {key} differs: {a} -> {b}")
    for key in ("workload", "seed", "seconds", "trace"):
        if old_d[key] != new_d[key]:
            print(f"{key} differs: {old_d[key]} -> {new_d[key]}")
    print(f"failed: {old_r['failed']}/{old_r['attempted']} -> "
          f"{new_r['failed']}/{new_r['attempted']}")
    for name, old in old_r["metrics"].items():
        new = new_r["metrics"].get(name)
        if new is None:
            print(f"{name:40s} {old['value']:>14.6g} -> missing")
            continue
        ratio = new["value"] / old["value"] if old["value"] else float("nan")
        print(f"{name:40s} {old['value']:>14.6g} -> {new['value']:<14.6g} "
              f"x{ratio:.3f} {old['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
