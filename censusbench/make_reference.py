"""Regenerate reference.json: g(n, k) for every row the workloads compute.

Run from the repository root:

    python3 censusbench/make_reference.py

Each row is counted twice, plain and mirror-pruned, and the two must agree.
Rows with n <= 3 must also equal the closed forms, and every row must lie
inside the exact sandwich bounds.  Any disagreement aborts without writing.
"""

from __future__ import annotations

import sys

from run import REFERENCE, SRC, THREADS, WORKLOADS, census_rows

sys.path.insert(0, str(SRC))

import braidcensus as bc  # noqa: E402


def main() -> int:
    rows = sorted({nk for workload in WORKLOADS for nk in census_rows(workload)})
    lines = []
    for n, k in rows:
        plain = bc.count_actual(n, k, threads=THREADS).g
        pruned = bc.count_actual(n, k, threads=THREADS, prune=True).g
        problems = []
        if plain != pruned:
            problems.append(f"plain {plain} != pruned {pruned}")
        if n == 2 and plain != bc.g2(k):
            problems.append(f"closed form g2 = {bc.g2(k)}")
        if n == 3 and plain != bc.g3_totient(k):
            problems.append(f"closed form g3 = {bc.g3_totient(k)}")
        if not bc.BoundReport.build(n, k, plain).verdict:
            problems.append("outside the sandwich bounds")
        if problems:
            print(f"g({n},{k}) = {plain}: " + "; ".join(problems), file=sys.stderr)
            return 1
        lines.append(f"    [{n}, {k}, {plain}]")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(
            '{\n  "generated_by": "censusbench/make_reference.py",\n'
            '  "checks": ["plain == pruned", "n <= 3 equals the closed form", '
            '"lower <= g <= upper"],\n'
            '  "rows": [\n' + ",\n".join(lines) + "\n  ]\n}\n"
        )
    print(f"wrote {len(lines)} rows to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
