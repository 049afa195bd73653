"""Alternating parent/change pairs of ``perfbench/run.py``, summarised as a ``BENCH_<n>.json`` block.

Run from the repository root, after committing the change:

    python3 tools/bench_pairs.py --parent <rev> --change HEAD --workload csv_250k \\
        --pairs 10 --first-seed 1401 --out BENCH_14.json

Each side runs from its own clean checkout (``git archive`` of the revision,
in a directory named by its tree id under ``--workdir``), so both sides use
their own benchmark code and package source.  Pair ``i`` uses seed
``first_seed + i`` on both sides; even pairs run the parent first, odd pairs
the change.  Run length is the ``run_seconds`` of ``BENCHMARK.json``.  The
workload's block in ``--out`` is replaced; the rest of the file is kept.  An
``--out`` file whose ``sides`` name other commits is refused before any run,
so that every block in a file was measured on the commits it names.

For each end-to-end metric the block holds every run, each side's median and
quartiles (``statistics.quantiles(n=4, method="inclusive")``), the change's
wins (pairs where it reads better; ties count for neither), the median change
in percent and the parent's interquartile range.  It also records, per side,
what a benchmark child runs on: the Python and numpy versions, and whether it
writes bytecode (it does not when ``PYTHONDONTWRITEBYTECODE`` is set, so every
CLI child then compiles the package from source).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def checkout(rev: str, workdir: Path) -> tuple[dict, Path]:
    """The revision's commit and tree ids, and a clean checkout of its tree."""
    ids = {"commit": git("rev-parse", f"{rev}^{{commit}}"), "tree": git("rev-parse", f"{rev}^{{tree}}")}
    ids["src_tree"] = git("rev-parse", f"{rev}:src")
    target = workdir / ids["tree"]
    if not target.exists():
        with tempfile.TemporaryFile() as archive:
            subprocess.run(["git", "archive", ids["commit"]], check=True, stdout=archive)
            archive.seek(0)
            with tarfile.open(fileobj=archive) as tar:
                tar.extractall(target, filter="data")
    return ids, target


# Run by a child in each side's checkout, with the environment the benchmark children get.
ENVIRONMENT = (
    "import json, platform, sys, numpy; print(json.dumps({'python': platform.python_version(), "
    "'numpy': numpy.__version__, 'writes_bytecode': not sys.dont_write_bytecode}))"
)


def environment(root: Path) -> dict:
    """The Python and numpy versions a benchmark child in ``root`` runs on, and whether it writes bytecode."""
    proc = subprocess.run([sys.executable, "-c", ENVIRONMENT], cwd=root, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def run_once(root: Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run's result line, with the output digest it printed.

    A run that fails stops the script with exit code 2 and the last 20 lines of the run's stderr.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        print(f"{workload} seed={seed} {side}: perfbench/run.py exited {proc.returncode}; its stderr ends:\n{tail}",
              file=sys.stderr)
        sys.exit(2)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["sha256"] = next(line.split()[1] for line in lines if line.startswith("sha256 "))
    return result


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6), "runs": [round(r, 6) for r in runs]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, default=Path(".bench_pairs"))
    args = parser.parse_args()
    if args.pairs < 2:  # the quartiles need two runs a side; refuse before any checkout or run
        parser.error(f"--pairs must be at least 2, got {args.pairs}")

    bench = json.loads(Path("BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {}
    roots = {}
    for side in ("parent", "change"):
        sides[side], roots[side] = checkout(getattr(args, side), args.workdir)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if record.setdefault("sides", sides) != sides:
        parser.error(f"{args.out} holds blocks measured on other commits ({record['sides']}); use a new --out file")
    seeds = [args.first_seed + i for i in range(args.pairs)]
    first = ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)]
    results = {"parent": [], "change": []}
    for seed, lead in zip(seeds, first):
        for side in (lead, "change" if lead == "parent" else "parent"):
            results[side].append(run_once(roots[side], side, args.workload, seed, bench["run_seconds"]))
            r = results[side][-1]
            print(f"{args.workload} seed={seed} {side}: op_ms_p50={r['metrics']['op_ms_p50']['value']:.3f} "
                  f"peak_rss_mb={r['metrics']['peak_rss_mb']['value']:.2f}", flush=True)

    metrics = {}
    for name, direction in better.items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in results}
        sign = 1 if direction == "lower" else -1
        block = {"better": direction, **{side: summary(runs[side]) for side in runs}}
        block["change_wins"] = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
        block["pairs"] = args.pairs
        parent_median, change_median = block["parent"]["median"], block["change"]["median"]
        block["median_change_pct"] = round(100 * (change_median - parent_median) / parent_median, 2)
        block["parent_iqr"] = round(block["parent"]["q3"] - block["parent"]["q1"], 6)
        metrics[name] = block
    record.setdefault("workloads", {})[args.workload] = {
        "seeds": seeds,
        "first_side": first,
        "environment": {side: environment(roots[side]) for side in results},
        "sha256_equal_in_every_pair": all(
            p["sha256"] == c["sha256"] for p, c in zip(results["parent"], results["change"])
        ),
        "correct": {side: [r["correct"] for r in results[side]] for side in results},
        "attempted": {side: [r["attempted"] for r in results[side]] for side in results},
        "failed": {side: [r["failed"] for r in results[side]] for side in results},
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
