"""Run the gtorsion benchmark and print its metrics.

    python3 bench/run.py --workload fixtures --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from the root of a checkout; it reads the program from ``src/`` and
writes only under ``.bench_build/``.  Each run

1. compiles the program's bytecode into a cache of its own (untimed),
2. generates the workload's inputs from ``--seed`` in a separate process,
3. with ``--trace 0``, times a cold import of the command-line modules in
   fresh processes (``setup_s``), then times verdicts in a fresh worker
   process for ``--seconds``; with ``--trace 1``, runs the worker with
   per-layer spans instead,
4. prints a table with one row per workload, then, as the last line, one
   JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every verdict's output is checked (see worker.py); a failed check makes
``correct`` false.  ``--workload all`` runs the three workloads in turn and
its last line maps each workload to its JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fixtures", "rotated", "extend"]
SETUP_REPEATS = 9
TIMEOUT = 170  # seconds, for any one child process

END_TO_END = {
    "setup_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.p80": "s",
    "inputs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics the result line carries: the ones that measure work on
# every workload.  Times of spans that some workload never opens read
# exactly 0 there and are printed in the table only.
PER_LAYER = (
    [f"{layer}.calls" for layer in (
        "scalars", "forms", "frames", "linsolve", "structures", "soliton",
        "reduction", "parser", "report", "engine", "registry")]
    + [f"{layer}.self_s" for layer in (
        "scalars", "forms", "frames", "linsolve", "structures", "parser", "report", "engine")]
    + [f"scalars.{c}" for c in ("mul", "add", "inverse", "eq", "roots")]
    + [
        "frames.levi_civita.calls", "frames.levi_civita.repeat_ratio",
        "frames.bismut_connection.calls", "frames.bismut_connection.repeat_ratio",
        "frames.curvature.calls", "frames.curvature.repeat_ratio",
        "structures.bismut_torsion.calls", "structures.bismut_torsion.repeat_ratio",
        "structures.torsion_classes.calls", "structures.torsion_classes.repeat_ratio",
        "structures.solve_skew_torsion.calls", "linsolve.solve_unique_sparse.calls",
        "structures.assemble.calls", "structures.assemble.total_s",
        "reduction.central_extend.calls", "reduction.reduce.calls", "reduction.adapt_frame.calls",
        "forms.hodge_star.calls", "forms.hodge_star.total_s", "forms.wedge.calls",
        "soliton.grs_residual.calls", "soliton.weighted_scalar.calls",
        "parser.parse.total_s", "report.to_json.total_s",
        "trace.overhead_ratio",
    ]
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Failed(Exception):
    """The benchmark could not run; no result is printed."""


def child(cmd, env, what):
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise Failed(f"{what} took longer than {TIMEOUT} s")
    if proc.returncode != 0:
        raise Failed(f"{what} exited with code {proc.returncode}")
    return proc.stdout


def environment(root):
    """Child environment: the program from src/, bytecode in our own cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".bench_build", "pycache")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(env) -> tuple[float, float]:
    """Median import time of the command-line modules in a fresh process,
    at nominal machine speed and as measured.

    The bytecode cache was filled by an earlier import and is only read
    here, so every sample has the same (warm) bytecode state.  Each probe
    times the reference loop right after the import to scale it."""
    env = dict(env, PYTHONDONTWRITEBYTECODE="1")
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "import gtorsion.engine, gtorsion.registry, gtorsion.cli\n"
        "t = time.perf_counter() - t\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import calib\n"
        "ref = sorted(calib.measure() for _ in range(3))[1]\n"
        "print(t * calib.NOMINAL_S / ref, t)\n"
    )
    probes = [child([sys.executable, "-c", code], env, "import probe").split() for _ in range(SETUP_REPEATS)]
    return statistics.median(float(p[0]) for p in probes), statistics.median(float(p[1]) for p in probes)


def run_workload(root, env, workload, seed, seconds, trace):
    work = os.path.join(root, ".bench_build", "gtorsion-bench")
    os.makedirs(work, exist_ok=True)
    child([sys.executable, "-c", "import gtorsion.engine, gtorsion.registry, gtorsion.cli"], env, "bytecode warm-up")
    inputs = os.path.join(work, f"inputs-{workload}-{seed}.json")
    child([sys.executable, os.path.join(BENCH, "gen.py"), "--workload", workload,
           "--seed", str(seed), "--out", inputs], env, "input generator")
    metrics, extra = {}, {}
    if not trace:
        metrics["setup_s"], extra["wall_setup_s"] = measure_setup(env)
    out = child([sys.executable, os.path.join(BENCH, "worker.py"), "--inputs", inputs,
                 "--seconds", str(seconds), "--trace", str(trace)], env, "worker")
    res = json.loads(out.strip().splitlines()[-1])
    problems = list(res["problems"])
    if trace:
        problems += [f"span count differs from cProfile: {m}" for m in res["profile_mismatches"]]
        layers = res["layers"]
        layers["trace.overhead_ratio"] = statistics.median(res["traced"]) / statistics.median(res["untraced"])
        table = {name: layers[name] for name in sorted(layers)}
        metrics.update({name: layers[name] for name in PER_LAYER})
        samples = res["untraced"]
    else:
        samples = res["samples"]
        metrics["verdict_s.p50"] = statistics.median(samples)
        metrics["verdict_s.p80"] = statistics.quantiles(samples, n=5, method="inclusive")[3]
        metrics["inputs_per_s"] = len(samples) / sum(samples)
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        extra["wall_p50_s"] = statistics.median(res["walls"])
        table = metrics
    for p in problems:
        sys.stderr.write(f"[{workload}] {p}\n")
    result = {
        "correct": not problems and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }
    extra.update(verdicts=len(samples), fail_ratio=res["failed"] / res["attempted"])
    return result, table, extra


def print_table(rows, trace):
    """One row per workload (end-to-end) or one row per metric (per-layer)."""
    if not trace:
        cols = ["verdicts", "fail_ratio"] + list(END_TO_END) + ["wall_setup_s", "wall_p50_s"]
        units = ["count", "ratio"] + list(END_TO_END.values()) + ["s", "s"]
        width = [max(len(c), 12) for c in cols]
        print("workload  " + "  ".join(c.rjust(w) for c, w in zip(cols, width)))
        print("          " + "  ".join(u.rjust(w) for u, w in zip(units, width)))
        for wl, (table, extra) in rows.items():
            vals = {**extra, **table}
            print(f"{wl:<8}  " + "  ".join(f"{vals[c]:.6g}".rjust(w) for c, w in zip(cols, width)))
        return
    names = sorted({n for table, _ in rows.values() for n in table})
    print(f"{'metric':<44}{'unit':>7}" + "".join(f"{wl:>14}" for wl in rows))
    for n in names:
        print(f"{n:<44}{unit_of(n):>7}" + "".join(f"{rows[wl][0].get(n, 0):>14.6g}" for wl in rows))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gtorsion", "engine.py")):
        sys.stderr.write("bench: run from a checkout root holding src/gtorsion\n")
        return 2
    env = environment(root)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results, rows = {}, {}
    try:
        for wl in workloads:
            result, table, extra = run_workload(root, env, wl, args.seed, args.seconds, args.trace)
            results[wl] = result
            rows[wl] = (table, extra)
    except Failed as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    print_table(rows, args.trace)
    last = results if args.workload == "all" else results[args.workload]
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
