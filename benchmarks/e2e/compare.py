"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the parent (or the first set), ``B`` the change (or the second set);
both are ``results.seed<N>.json`` files written by ``run.py``.  For every
end-to-end metric x workload it prints B's relative difference from A, signed
so that positive is *worse*, against the regression bound ``BENCHMARK.json``
fixes for that metric:

``ok``          B is no worse than A by more than the bound;
``WORSE``       B is worse than A by more than the bound;
``unresolved``  a set's own run-to-run spread exceeds the bound, so the sets
                cannot tell a regression of that size from noise (needs sets
                of at least two runs: ``run.py --repeats K``) — unless every
                run of B reads better than every run of A.

When both sets ran the same seeds it also says whether what should repeat
exactly did: the loss/MRR/score digests, ``eval.mrr`` and the kernel counts
(two builds of one commit must agree; a change that leaves the arithmetic alone
should too).  That part is information, not verdict.

Exit code 0 when no pairing is ``WORSE`` or ``unresolved``, 1 otherwise, 2 on
sets that cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(values) -> float:
    """Run-to-run spread of one set as a share of its median: the quartile
    distance from four runs up, the range below that, 0 for a single run."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    else:
        width = max(values) - min(values)
    return abs(width / statistics.median(values))


def compare(a: dict, b: dict, catalogue: dict):
    """Rows ``(workload, metric, a, b, worse_by, bound, spread, verdict)``."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for spec in catalogue["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            ma = a["workloads"][workload]["end_to_end"][name]
            mb = b["workloads"][workload]["end_to_end"][name]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse_by = sign * (mb["value"] - ma["value"]) / abs(ma["value"])
            va, vb = ma.get("values", [ma["value"]]), mb.get("values", [mb["value"]])
            noise = max(spread(va), spread(vb))
            all_better = (max(vb) < min(va) if spec["better"] == "lower"
                          else min(vb) > max(va))
            if noise > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "WORSE"
            else:
                verdict = "ok"
            rows.append((workload, name, ma["value"], mb["value"], worse_by,
                         bound, noise, verdict))
    return rows


#: per-layer values that are counts or deterministic outputs, not timings.
EXACT = ("eval.mrr", "tensor.kernel_calls_per_op", "tensor.matmul_calls_per_op",
         "tensor.kernel_out_mb_per_op")


def exact_repeats(a: dict, b: dict):
    """Per workload, the names among digests/``EXACT`` that differ."""
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        differing = [] if wa["digests"] == wb["digests"] else ["digest"]
        differing += [name for name in EXACT
                      if wa["info"].get("exact_counts", True)
                      and name in wa["per_layer"] and name in wb["per_layer"]
                      and wa["per_layer"][name]["values"]
                      != wb["per_layer"][name]["values"]]
        yield workload, differing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb, \
            open(ROOT / "BENCHMARK.json") as fc:
        a, b, catalogue = json.load(fa), json.load(fb), json.load(fc)
    for key in ("seconds", "smoke"):
        if a.get(key) != b.get(key):
            print(f"the sets differ in {key}: {a.get(key)} vs {b.get(key)}")
            return 2
    rows = compare(a, b, catalogue)
    if not rows:
        print("the sets share no workload")
        return 2
    print(f"{'workload':<22}{'metric':<14}{'A':>12}{'B':>12}{'worse by':>10}"
          f"{'bound':>7}{'spread':>8}  verdict")
    for workload, name, va, vb, worse_by, bound, noise, verdict in rows:
        print(f"{workload:<22}{name:<14}{va:>12.5g}{vb:>12.5g}{worse_by:>+10.1%}"
              f"{bound:>7.0%}{noise:>8.1%}  {verdict}")
    if a.get("seed") == b.get("seed") and a.get("repeats") == b.get("repeats"):
        for workload, differing in exact_repeats(a, b):
            print(f"{workload:<22}exact repeats: "
                  + ("all equal" if not differing else "DIFFER " + ", ".join(differing)))
    bad = [r for r in rows if r[-1] != "ok"]
    print(f"{len(rows) - len(bad)} of {len(rows)} pairings agree within bounds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
