"""End-to-end wall-clock benchmark of the train / stream / serve paths.

Two ways to run it, one code path underneath:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One pass of one workload in this process (what ``BENCHMARK.json``'s
    ``command`` is).  Prints every metric by name with its unit and sample
    count, then — as the last line — one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
    ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exit code 0 iff
    the outputs were correct.

``python3 benchmarks/e2e/run.py [--seed N] [--workload W] [--smoke] ...``
    A full *set*: every workload in its own fresh subprocess, one at a time,
    untraced and then traced, plus the cross-pass check that tracing did not
    change a single loss or score.  Writes ``results.seed<N>.json`` and the
    Chrome traces under ``--out``.

The program runs with its defaults: every ``REPRO_*`` variable is scrubbed and
BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

# Before numpy: BLAS thread count changes summation order (and so the last
# digits of MRR), and an inherited REPRO_* would silently swap a backend.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MIN_FREE_GB = {"full": 6.0, "smoke": 1.0}


def load_catalogue() -> dict:
    """``BENCHMARK.json``: the only place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def free_ram_gb() -> float:
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 2 ** 20
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30


def host_fingerprint() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "kernel": platform.release(),
        "machine": platform.machine(),
        "total_ram_gb": round(os.sysconf("SC_PHYS_PAGES")
                              * os.sysconf("SC_PAGE_SIZE") / 2 ** 30, 2),
        "free_ram_gb": round(free_ram_gb(), 2),
    }


def refuse_if_low_memory(smoke: bool) -> None:
    need = MIN_FREE_GB["smoke" if smoke else "full"]
    free = free_ram_gb()
    if free < need:
        sys.exit(f"e2e benchmark refused: {free:.1f} GB of RAM free, {need:.0f} GB "
                 "needed (train_tgat_taser peaks near 5 GB and a swapping run "
                 "measures the disk, not the program)")


def print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")


# ---------------------------------------------------------------------------
# one pass, in this process
# ---------------------------------------------------------------------------

def run_pass(args, catalogue: dict) -> int:
    refuse_if_low_memory(args.smoke)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    from tracer import Tracer
    import workloads

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.patch_program()
    out = workloads.RUNNERS[args.workload](args.workload, args.seed,
                                           float(args.seconds), tracer, args.smoke)

    kind = "per_layer" if args.trace else "end_to_end"
    measured = out.per_layer if args.trace else out.end_to_end
    declared = {m["name"]: m["unit"] for m in catalogue[kind]}
    stray = sorted(set(measured) - set(declared))
    unreached = sorted(k for k, m in measured.items() if m["value"] is None)
    wrong_unit = sorted(k for k, m in measured.items()
                        if k in declared and m["unit"] != declared[k])
    for name in unreached:
        print(f"WARNING: {name} was never reached on {args.workload}, where "
              "its layer should run", file=sys.stderr)
    out.checks["catalogue_matches"] = not (stray or wrong_unit)
    out.checks["layers_reached"] = not unreached
    if stray or wrong_unit:
        print(f"ERROR: not in BENCHMARK.json {kind}: {stray}; unit differs: "
              f"{wrong_unit}", file=sys.stderr)
    # A per-layer metric this workload did not produce belongs to a layer
    # that is not on its path (the adaptive sampler on a baseline, the serve
    # engine on a trainer): it spent 0 there.  End-to-end metrics are all
    # produced by every workload.
    metrics = {}
    for name, unit in declared.items():
        m = measured.get(name)
        if m is None and not args.trace:
            out.checks["catalogue_matches"] = False
            print(f"ERROR: end-to-end metric {name} was not measured",
                  file=sys.stderr)
        value = 0.0 if m is None or m["value"] is None else m["value"]
        metrics[name] = {"value": value, "unit": unit,
                         "samples": 0 if m is None else m["samples"]}
    if not args.trace:
        out.checks["finite_positive"] = all(
            np.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())
    else:
        out.checks["finite"] = all(np.isfinite(m["value"]) for m in metrics.values())
    correct = all(out.checks.values())

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(args.trace)} smoke={int(args.smoke)}")
    print_metrics(kind, metrics)
    print(f"-- ops attempted={out.attempted} failed={out.failed} "
          f"digest={out.digest}")
    print("-- checks " + " ".join(f"{k}={'ok' if v else 'FAIL'}"
                                  for k, v in out.checks.items()))
    print("-- info " + json.dumps(out.info, default=str))

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        detail = {"workload": args.workload, "seed": args.seed,
                  "trace": int(args.trace), "correct": correct,
                  "attempted": out.attempted, "failed": out.failed,
                  "digest": out.digest, "checks": out.checks, "info": out.info,
                  "metrics": metrics, "samples": out.samples}
        with open(pass_file(args.out, args.workload, args.seed, args.trace),
                  "w") as handle:
            json.dump(detail, handle, indent=1, default=str)
        if tracer is not None:
            tracer.write_chrome_trace(
                os.path.join(args.out, f"trace.{args.workload}.json"))

    print(json.dumps({
        "correct": bool(correct), "attempted": max(1, int(out.attempted)),
        "failed": int(out.failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}}))
    return 0 if correct else 1


def pass_file(out_dir: str, workload: str, seed: int, trace) -> str:
    return os.path.join(out_dir, f"pass.{workload}.seed{seed}.trace{int(trace)}.json")


# ---------------------------------------------------------------------------
# a full set: one subprocess per workload and pass, one at a time
# ---------------------------------------------------------------------------

def run_set(args, catalogue: dict) -> int:
    refuse_if_low_memory(args.smoke)
    names = [w["name"] for w in catalogue["workloads"]]
    chosen = [args.workload] if args.workload else names
    out_dir = args.out or str(HERE / "out")
    os.makedirs(out_dir, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    host = host_fingerprint()
    print("host " + json.dumps(host))

    def child(workload: str, seed: int, trace: int) -> dict:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", out_dir]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, cwd=str(ROOT))
        path = pass_file(out_dir, workload, seed, trace)
        if not os.path.exists(path):
            sys.exit(f"{workload} (trace={trace}) died with exit code "
                     f"{done.returncode} before writing a result")
        with open(path) as handle:
            detail = json.load(handle)
        os.remove(path)
        return detail

    ok = True
    results = {}
    for workload in chosen:
        plain, traced = [], []
        for repeat in range(args.repeats):
            plain.append(child(workload, args.seed + repeat, 0))
            if not args.no_trace:
                traced.append(child(workload, args.seed + repeat, 1))
        checks = {"untraced_correct": all(p["correct"] for p in plain)}
        if traced:
            checks["traced_correct"] = all(t["correct"] for t in traced)
            # The wrappers must not perturb the program: same losses, same
            # MRR, same scores with and without them.
            checks["tracing_changes_nothing"] = all(
                p["digest"] == t["digest"] for p, t in zip(plain, traced))
        ok = ok and all(checks.values())
        results[workload] = {
            "checks": checks,
            "attempted": sum(p["attempted"] for p in plain),
            "failed": sum(p["failed"] for p in plain),
            "digests": [p["digest"] for p in plain],
            "info": plain[0]["info"],
            "end_to_end": merge([p["metrics"] for p in plain]),
            "per_layer": merge([t["metrics"] for t in traced]),
        }
        print(f"== {workload}: " + " ".join(
            f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
        print_metrics("end_to_end", results[workload]["end_to_end"])
        if traced:
            print_metrics("per_layer", results[workload]["per_layer"])

    path = os.path.join(out_dir, f"results.seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"schema": 1, "seed": args.seed, "repeats": args.repeats,
                   "seconds": args.seconds, "smoke": bool(args.smoke),
                   "host": host, "correct": ok, "workloads": results},
                  handle, indent=1)
    print(f"{'PASS' if ok else 'FAIL'}: wrote {path}")
    return 0 if ok else 1


def merge(passes: list) -> dict:
    """Per metric: the median over the set's runs, and the runs themselves."""
    merged = {}
    for name in (passes[0] if passes else {}):
        values = [p[name]["value"] for p in passes]
        merged[name] = {"value": statistics.median(values),
                        "unit": passes[0][name]["unit"],
                        "samples": passes[0][name]["samples"],
                        "values": values}
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run only this workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: dataset, arrivals, candidate draws")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE pass in this process: 0 prints the "
                             "end-to-end metrics, 1 the per-layer metrics")
    parser.add_argument("--no-trace", action="store_true",
                        help="set mode: skip the traced passes")
    parser.add_argument("--repeats", type=int, default=1,
                        help="set mode: runs per workload, on seeds N, N+1, ...")
    parser.add_argument("--out", default=None,
                        help="directory for results and traces (set mode "
                             "default: benchmarks/e2e/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code paths, under 20 s")
    args = parser.parse_args(argv)
    catalogue = load_catalogue()
    if args.seconds is None:
        args.seconds = float(catalogue["run_seconds"])
    known = [w["name"] for w in catalogue["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}: choose from {known}")
    if args.trace is None:
        return run_set(args, catalogue)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_pass(args, catalogue)


if __name__ == "__main__":
    sys.exit(main())
