"""Alternating untraced perfbench pairs of a base revision and the working tree.

    python tools/bench_pairs.py --base HEAD~1 --seeds 801,802,803 --seconds 30 --out BENCH_8.json

The base revision is extracted with ``git archive`` into a temporary
directory. For each workload and each seed, ``perfbench/run.py --trace 0``
runs once in the base tree and once in the working tree, each with its own
copy of perfbench and of the program; which side runs first alternates from
pair to pair, so a drift in the machine's speed falls on both sides alike.
The output file holds every run's result; per side the operations attempted
and failed and the runs whose outputs were wrong; and per metric each side's
median and quartiles and the number of pairs in which the working tree was
better (``better`` is taken from BENCHMARK.json; ties count for neither side).
Each metric also gets three verdicts. ``gain_shown``: the working tree won at
least nine pairs in ten, and its median is better than the base's by more
than the base's interquartile range. ``worse_beyond_bound``: its median is
worse than the base's by more than the metric's ``bound`` in BENCHMARK.json,
a fraction of the base's median. ``unresolved``: the base's interquartile
range is wider than that bound, so a median within the bound does not show
the metric unchanged, and not every run of the working tree is better than
every run of the base. Per side, ``cpu_wall_ratio`` is the median
over the runs of process CPU time over wall time, ``cpu_ms_per_env_step ×
env_steps_per_s / 1000``: about 1 for a process that runs one thread, and
higher for each thread that runs beside it. The ``machine`` entry names what
the figures depend on besides the code: the OpenBLAS kernel set
(``blas_core``, read through the working tree's ``maie.autodiff``), numpy's
and Python's versions and ``os.cpu_count()``, so that files written on
different machines are not compared by mistake.
perfbench exits 0 on wrong outputs too, so the script exits 1 after writing
the file when any run was wrong or any operation failed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def extract(rev: str, dest: str) -> str:
    """Write the files of ``rev`` under ``dest``; return the tree's path."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def perfbench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``; its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: perfbench in {tree} exited {proc.returncode} on {workload} seed {seed}")
    return json.loads(lines[-1])


def machine() -> dict:
    """The BLAS kernel set, numpy's and Python's versions and the CPU count of the runs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy

        from maie import autodiff
    finally:
        sys.path.pop(0)
    return {"blas_core": autodiff.blas_core(), "numpy": numpy.__version__,
            "python": platform.python_version(), "cpu_count": os.cpu_count()}


GAIN_PAIR_SHARE = 0.9  # a claimed gain must win at least this share of the pairs


def summarize(runs: list, metrics: dict) -> dict:
    """Each side's operation counts and median CPU/wall ratio; per metric each side's median and quartiles, the pairs the change won, and the three verdicts.

    ``metrics`` maps each metric's name to its BENCHMARK.json entry, of which
    ``better`` and ``bound`` are read.
    """
    out = {
        "operations": {
            side: {
                "attempted": sum(r[side]["attempted"] for r in runs),
                "failed": sum(r[side]["failed"] for r in runs),
                "incorrect_runs": sum(not r[side]["correct"] for r in runs),
            }
            for side in ("base", "change")
        },
        "cpu_wall_ratio": {
            side: statistics.median(
                r[side]["metrics"]["cpu_ms_per_env_step"]["value"] * r[side]["metrics"]["env_steps_per_s"]["value"]
                / 1e3 for r in runs)
            for side in ("base", "change")
        },
    }
    for name, spec in metrics.items():
        sides = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in ("base", "change")}
        entry = {}
        for side, values in sides.items():
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        entry["change_better_pairs"] = sum(sign * (c - b) > 0 for b, c in zip(sides["base"], sides["change"]))
        entry["pairs"] = len(runs)
        base = entry["base"]
        entry["median_change_pct"] = 100.0 * (entry["change"]["median"] / base["median"] - 1.0)
        gain = sign * (entry["change"]["median"] - base["median"])  # > 0 when the change is better
        entry["gain_shown"] = bool(
            entry["change_better_pairs"] >= GAIN_PAIR_SHARE * len(runs) and gain > base["q3"] - base["q1"]
        )
        entry["worse_beyond_bound"] = bool(-gain > spec["bound"] * abs(base["median"]))
        every_run_better = min(sign * c for c in sides["change"]) > max(sign * b for b in sides["base"])
        entry["unresolved"] = bool(
            base["q3"] - base["q1"] > spec["bound"] * abs(base["median"]) and not every_run_better
        )
        out[name] = entry
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--seeds", required=True, help="comma-separated perfbench seeds, one pair per seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(workloads), help="comma-separated subset of BENCHMARK.json's")
    parser.add_argument("--out", required=True, help="path of the BENCH_<n>.json file to write")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    chosen = args.workloads.split(",")
    unknown = sorted(set(chosen) - set(workloads))
    if unknown or not seeds or min(seeds) < 0:
        parser.error(f"need workloads from {workloads} (unknown: {unknown}) and seeds >= 0")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    result = {
        "base": {"rev": args.base, "commit": git("rev-parse", args.base)},
        "change": {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "machine": machine(),
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"base": extract(args.base, tmp), "change": ROOT}
        for workload in chosen:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = perfbench(trees[side], workload, seed, args.seconds)
                    op = run[side]["metrics"]["op_ms_p50"]["value"]
                    print(f"{workload} seed {seed} {side:<6} op_ms_p50 {op:.2f} ms", file=sys.stderr, flush=True)
                runs.append(run)
            summary = summarize(runs, metrics)
            result["workloads"][workload] = {"summary": summary, "runs": runs}
            ratio = summary["cpu_wall_ratio"]
            print(f"{workload} cpu/wall median: base {ratio['base']:.2f}, change {ratio['change']:.2f}",
                  file=sys.stderr, flush=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    unsound = unsound_workloads(result)
    if unsound:
        print(f"bench_pairs: wrong outputs or failed operations in {unsound}", file=sys.stderr)
        return 1
    return 0


def unsound_workloads(result: dict) -> list:
    """Workloads in which a run of either side had wrong outputs or a failed operation."""
    return [
        name
        for name, entry in result["workloads"].items()
        if any(ops["failed"] or ops["incorrect_runs"] for ops in entry["summary"]["operations"].values())
    ]


if __name__ == "__main__":
    sys.exit(main())
