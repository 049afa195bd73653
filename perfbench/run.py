"""Benchmark for the mediation-bounds package.

Run from the repository root:

    python3 perfbench/run.py --workload csv_250k --seed 1 --seconds 20 --trace 0

One client drives a closed loop: the next operation starts when the previous
one has finished.  CLI workloads start one ``mediation-bounds`` subprocess at
a time; library workloads call the package in process.  ``--trace 0`` measures
the end-to-end metrics with no instrumentation; ``--trace 1`` runs the same
operations in process with span wrappers on every layer function and reports
the per-layer metrics.  Each operation's time is divided by a host-speed
factor taken from reference slices timed around it (see HostSpeed), and each
set-up's by the start-up time of a reference interpreter run beside it; the
raw values are printed beside them.  Outputs are checked outside the timed region.
The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run (environment, inputs, sha256 of the outputs, spans) is written under
``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(".perfbench_work")  # relative to ROOT, so report texts match across checkouts
RESULTS = Path(".perfbench_results")

SETUP_RUNS = 7
DEEP_SAMPLE = 6  # operations per run whose outputs are also checked against scipy
REPEAT_OPS = 8  # library operations run again after the loop to check determinism
REMEMBERED_KEYS = 1024  # inputs whose output digest is kept to compare repeats (inference_mc repeats 128)
CHILD_TIMEOUT_S = 150.0
REFERENCE_SLICE_S = 0.002  # the reference slice's time that defines factor 1
SAMPLE_EVERY_S = 0.1
LOCAL_WINDOW_S = 1.0  # an operation's factor comes from the slices this close to it
LOCAL_MIN_SLICES = 5
REFERENCE_START = "import numpy"  # the reference interpreter run beside each set-up
REFERENCE_START_S = 0.2  # the reference interpreter's time that defines factor 1
LAUNCH = "from mediation_bounds.cli import cli_entry; cli_entry()"

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Child:
    seconds: float
    stdout: bytes
    stderr: bytes
    exit_code: int
    maxrss_mb: float


class Spawner:
    """Runs measured children through spawner.py, a process kept small (see its docstring)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def run(self, args: list[str]) -> Child:
        """One Python child with the package on its path, timed from spawn to exit with stdout read."""
        request = {
            "args": [sys.executable, *args],
            "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "cwd": str(ROOT),
            "stdout": str(ROOT / WORKDIR / "stdout.bin"),
            "stderr": str(ROOT / WORKDIR / "stderr.bin"),
            "timeout": CHILD_TIMEOUT_S,
        }
        reply = self._ask(request)
        return Child(
            reply["seconds"],
            Path(request["stdout"]).read_bytes(),
            Path(request["stderr"]).read_bytes(),
            reply["exit_code"],
            reply["maxrss_kb"] / 1024.0,
        )

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended unexpectedly")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()


_REF_A = np.linspace(-1.0, 1.0, 4000).reshape(500, 8)
_REF_B = np.linspace(0.0, 1.0, 64).reshape(8, 8)


def reference_slice() -> float:
    """Time one slice of fixed work that never touches the package (about 2 ms).

    Small numpy calls, as in the package's own inner loops.  On the VM this
    was tuned on they followed the library workloads' speed about twice as
    closely as a pure-interpreter loop did.
    """
    start = time.perf_counter()
    for _ in range(20):
        np.quantile((_REF_A @ _REF_B).max(axis=1), 0.9)
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs right now, from reference slices timed between operations.

    The VM this benchmark was tuned on changes speed by up to 1.8x over
    minutes, and by 1.5x between seconds of one run, as its neighbours' load
    changes, which moves every wall time together.  An operation's factor is
    the median time of the slices taken within LOCAL_WINDOW_S of it, divided
    by REFERENCE_SLICE_S, and its time is divided by that factor; a slow
    stretch of the host then no longer decides the tail.  Slices run only
    between operations, never inside a timed region.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.stamps: list[float] = []  # when each slice ended
        self.last = time.perf_counter()

    def sample(self, force: bool = False) -> None:
        """Take one slice per SAMPLE_EVERY_S elapsed since the last sample (at least one if forced)."""
        due = int((time.perf_counter() - self.last) / SAMPLE_EVERY_S)
        if due or force:
            for _ in range(min(max(due, 1), 50)):
                self.slices.append(reference_slice())
                self.stamps.append(time.perf_counter())
            self.last = time.perf_counter()

    def factor(self) -> float:
        """The whole run's factor."""
        return statistics.median(self.slices) / REFERENCE_SLICE_S

    def local_factor(self, start: float, end: float) -> float:
        """The factor of an operation timed from ``start`` to ``end``; the run's when few slices are near."""
        lo = bisect.bisect_left(self.stamps, start - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + LOCAL_WINDOW_S)
        if hi - lo < LOCAL_MIN_SLICES:
            return self.factor()
        return statistics.median(self.slices[lo:hi]) / REFERENCE_SLICE_S


def run_in_process(argv: list[str]) -> tuple[int, bytes]:
    from mediation_bounds import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode("utf-8")


class Reservoir:
    """A seeded uniform sample of fixed size from a stream of unknown length."""

    def __init__(self, size: int, seed: int):
        self.size = size
        self.rng = random.Random(seed)
        self.items: list = []
        self.seen = 0

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                self.items[j] = item


@dataclass
class Outcome:
    """What one run measured and which operations failed."""

    times: list[float] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)  # perf_counter at each op's start and end
    failures: dict[int, list[str]] = field(default_factory=dict)
    maxrss_mb: float = 0.0
    digest: object = field(default_factory=hashlib.sha256)  # sha256 of the first ops' outputs
    first_by_key: dict[int, bytes] = field(default_factory=dict)

    def fail(self, i: int, messages: list[str]) -> None:
        if messages:
            self.failures.setdefault(i, []).extend(messages)

    def record_output(self, w, i: int, data: bytes) -> None:
        """Fold op ``i``'s output into the digest and compare it with earlier runs of the same input."""
        if i < w.digest_ops:
            self.digest.update(data)
        key = w.key(i)
        if key < REMEMBERED_KEYS:
            first = self.first_by_key.setdefault(key, hashlib.sha256(data).digest())
            if first != hashlib.sha256(data).digest():
                self.fail(i, [f"output differs from an earlier run of the same input (key {key})"])


def keep_looping(w, n: int, started: float, seconds: float) -> bool:
    if n >= len(w):
        return False
    if n < max(w.block, w.digest_ops) or n % w.block:
        return True
    return time.perf_counter() - started < seconds


def measure_setup(w, spawner: Spawner) -> tuple[list[float], list[float], float]:
    """Fresh interpreters that import the package and warm up each function the workload uses.

    Each set-up is followed by a reference interpreter that only imports
    numpy, which never touches the package.  Interpreter start-up reads and
    maps files, and its speed follows the host differently from the
    in-process reference slices, so set-up time is normalised by this
    reference instead.  The first set-up in a fresh checkout also writes
    bytecode caches; the median keeps that one slow sample out of the metric.
    Returns the set-up times, the reference times and the set-ups' peak RSS.
    """
    times, references, peak = [], [], 0.0
    for _ in range(SETUP_RUNS):
        child = spawner.run(["-c", w.setup_code])
        reference = spawner.run(["-c", REFERENCE_START])
        for what, c in (("set-up", child), ("reference", reference)):
            if c.exit_code != 0:
                raise RuntimeError(f"{what} interpreter failed ({c.exit_code}): {c.stderr.decode()[-2000:]}")
        times.append(child.seconds)
        references.append(reference.seconds)
        peak = max(peak, child.maxrss_mb)
    return times, references, peak


def cli_untraced(w, spawner: Spawner, host: HostSpeed, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    deep = Reservoir(DEEP_SAMPLE, seed)
    started = time.perf_counter()
    n = 0
    while keep_looping(w, n, started, seconds):
        t0 = time.perf_counter()
        child = spawner.run(["-c", LAUNCH, *w.argv(n)])
        out.spans.append((t0, time.perf_counter()))
        host.sample()
        out.times.append(child.seconds)
        out.maxrss_mb = max(out.maxrss_mb, child.maxrss_mb)
        if child.exit_code != 0:
            out.fail(n, [f"exit code {child.exit_code}: {child.stderr.decode(errors='replace')[-500:]}"])
        else:
            out.record_output(w, n, child.stdout)
            out.fail(n, w.check(n, child.stdout, deep=False))
            deep.offer((n, child.stdout))
        n += 1
    for i, stdout in deep.items:
        out.fail(i, w.check(i, stdout, deep=True))
    return out


def library_loop(
    w, seed: int, seconds: float, count: int | None = None, recorder=None, host: HostSpeed | None = None
) -> tuple[Outcome, list[bytes]]:
    """Call the package in process; returns the outcome and each op's output digest.

    Without ``count`` the loop runs for ``seconds``.  With a ``recorder`` (a
    traced pass) each op's spans carry its index, and the scipy checks are
    left to the untraced pass so that they record no spans.  With a ``host``,
    reference slices are taken between operations.
    """
    out = Outcome()
    deep = Reservoir(DEEP_SAMPLE, seed)
    digests: list[bytes] = []
    started = time.perf_counter()
    n = 0
    while n < count if count is not None else keep_looping(w, n, started, seconds):
        if recorder is not None:
            recorder.op = n
        t0 = time.perf_counter()
        try:
            result = w.call(n)
        except Exception as exc:  # any exception from the package is a failed operation
            out.spans.append((t0, time.perf_counter()))
            out.times.append(out.spans[-1][1] - t0)
            out.fail(n, [f"{type(exc).__name__}: {exc}"])
            digests.append(b"")
            n += 1
            continue
        out.spans.append((t0, time.perf_counter()))
        out.times.append(out.spans[-1][1] - t0)
        if host is not None:
            host.sample()
        data = w.canonical(result).encode("utf-8")
        digests.append(hashlib.sha256(data).digest())
        out.record_output(w, n, data)
        out.fail(n, w.check(n, result, deep=False))
        if recorder is None:
            deep.offer((n, result))
        n += 1
    for i, result in deep.items:
        out.fail(i, w.check(i, result, deep=True))
    return out, digests


def library_untraced(w, host: HostSpeed, seed: int, seconds: float) -> Outcome:
    for i in range(min(REPEAT_OPS, len(w))):  # warm-up, untimed
        w.call(i)
    out, digests = library_loop(w, seed, seconds, host=host)
    for i in range(min(REPEAT_OPS, len(out.times))):
        again = hashlib.sha256(w.canonical(w.call(i)).encode("utf-8")).digest()
        if digests[i] and again != digests[i]:
            out.fail(i, ["output differs when the same input runs again"])
    return out


def end_to_end(w, spawner: Spawner, seed: int, seconds: float, report: dict) -> tuple[Outcome, dict]:
    setup_times, reference_times, setup_rss = measure_setup(w, spawner)
    host = HostSpeed()
    host.sample(force=True)
    if w.cli:
        out = cli_untraced(w, spawner, host, seed, seconds)
    else:
        out = library_untraced(w, host, seed, seconds)
    host.sample(force=True)
    factors = [host.local_factor(start, end) for start, end in out.spans]
    keys = [w.key(i) for i in range(len(out.times))]
    raw = timing_metrics(out.times, keys, w.tail)
    raw["setup_s"] = statistics.median(setup_times)
    raw["peak_rss_mb"] = max(out.maxrss_mb, setup_rss)
    metrics = timing_metrics([t / f for t, f in zip(out.times, factors)], keys, w.tail)
    setup_ratios = [s / r for s, r in zip(setup_times, reference_times)]
    metrics["setup_s"] = statistics.median(setup_ratios) * REFERENCE_START_S
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    metrics = {name: metrics[name] for name, _ in END_TO_END}
    times = out.times
    report["samples"] = {
        "setup_s": f"median of {len(setup_times)} set-up / reference interpreter ratios",
        "op_ms_p50": f"median of {len(times)} operations",
        "op_ms_tail": f"p{round(100 * w.tail)} over {len(set(keys))} inputs of each one's median time",
        "ops_per_s": f"{len(times)} operations in {sum(times):.3f} s",
        "peak_rss_mb": f"max over {len(times) if w.cli else 0} operations and {len(setup_times)} set-ups",
    }
    report["raw_metrics"] = raw
    report["host_factor"] = statistics.median(factors)
    report["reference_slices_s"] = host.slices
    report["setup_samples_s"] = setup_times
    report["setup_reference_samples_s"] = reference_times
    report["op_samples_s"] = times if len(times) <= 20000 else None
    report["op_factors"] = factors if len(times) <= 20000 else None
    return out, metrics


def timing_metrics(times: list[float], keys: list[int], tail: float) -> dict[str, float]:
    """Median and throughput of operation times (seconds), and their tail over inputs.

    The tail is the ``tail`` quantile, over distinct inputs (operation keys),
    of each input's median time.  Where an input runs several times in a run,
    its median keeps a slow moment of the host from standing in for a slow
    input; where every input is distinct it is the plain quantile of the times.
    """
    by_key: dict[int, list[float]] = {}
    for key, t in zip(keys, times):
        by_key.setdefault(key, []).append(t)
    per_input = [statistics.median(ts) for ts in by_key.values()]
    q = per_input[0]
    if len(per_input) > 1:
        q = statistics.quantiles(per_input, n=100, method="inclusive")[round(100 * tail) - 1]
    return {
        "op_ms_p50": 1000.0 * statistics.median(times),
        "op_ms_tail": 1000.0 * q,
        "ops_per_s": len(times) / sum(times),
    }


def traced(w, spawner: Spawner, seed: int, seconds: float, report: dict) -> tuple[Outcome, dict]:
    import tracing

    recorder = tracing.Recorder()
    untraced_total = traced_total = 0.0
    if w.cli:
        out = Outcome()
        run_in_process(w.argv(0))  # warm-up, untimed: the first in-process run pays for fresh memory
        started = time.perf_counter()
        n = 0
        while keep_looping(w, n, started, seconds):
            argv = w.argv(n)
            child = spawner.run(["-c", LAUNCH, *argv])
            recorder.op = n
            runs = {}
            # Alternate which in-process run goes first, so neither side always inherits a warm heap.
            for traced_turn in ((False, True) if n % 2 == 0 else (True, False)):
                with tracing.Installed(recorder) if traced_turn else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    runs[traced_turn] = run_in_process(argv)
                    elapsed = time.perf_counter() - t0
                if traced_turn:
                    traced_total += elapsed
                    out.times.append(elapsed)
                else:
                    untraced_total += elapsed
            codes = (child.exit_code, runs[False][0], runs[True][0])
            if codes != (0, 0, 0):
                out.fail(n, [f"exit codes (subprocess, in process, traced): {codes}"])
            elif not (runs[True][1] == runs[False][1] == child.stdout):
                out.fail(n, ["traced in-process stdout differs from the untraced subprocess stdout"])
            else:
                out.record_output(w, n, child.stdout)
                out.fail(n, w.check(n, child.stdout, deep=n == 0))
            n += 1
    else:
        for i in range(min(REPEAT_OPS, len(w))):  # warm-up, untimed
            w.call(i)
        plain, plain_digests = library_loop(w, seed, seconds / 2)
        with tracing.Installed(recorder):
            out, digests = library_loop(w, seed, 0.0, count=len(plain.times), recorder=recorder)
        untraced_total, traced_total = sum(plain.times), sum(out.times)
        for i, (a, b) in enumerate(zip(plain_digests, digests)):
            if a != b:
                out.fail(i, ["traced output differs from the untraced output"])
        for i, messages in plain.failures.items():
            out.fail(i, messages)
    metrics = tracing.layer_metrics(recorder, traced_total, untraced_total)
    spans_path = RESULTS / f"spans-{w.name}-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for s in recorder.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")
    report["spans_file"] = str(spans_path)
    report["traced_ops"] = len(out.times)
    return out, metrics


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    l3 = "unknown"
    with contextlib.suppress(OSError):
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mediation_bounds" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'mediation_bounds'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    RESULTS.mkdir(exist_ok=True)
    spawner = Spawner()
    try:
        sys.path.insert(0, str(SRC))
        import workloads

        if args.workload not in workloads.WORKLOADS:
            known = sorted(workloads.WORKLOADS)
            print(f"perfbench: unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
            return 2
        w = workloads.WORKLOADS[args.workload]()
        report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        report["environment"] = environment()
        report["inputs"] = w.generate(args.seed, WORKDIR)
        measure = traced if args.trace else end_to_end
        out, metrics = measure(w, spawner, args.seed, args.seconds, report)
    finally:
        spawner.close()
        shutil.rmtree(WORKDIR, ignore_errors=True)

    import tracing

    units = dict(tracing.per_layer_metrics() if args.trace else END_TO_END)
    attempted = len(out.times)
    failed = len(out.failures)
    report["sha256"] = out.digest.hexdigest()
    report["failed_frac"] = failed / attempted
    report["failures"] = {str(i): msgs for i, msgs in sorted(out.failures.items())[:20]}
    report["metrics"] = metrics

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment {json.dumps(report['environment'])}")
    print(f"inputs {json.dumps(report['inputs'])}")
    if "host_factor" in report:
        print(f"host speed factor {report['host_factor']:.4f} (median over operations of the median reference "
              f"slice within {LOCAL_WINDOW_S:g} s / {REFERENCE_SLICE_S} s; {len(report['reference_slices_s'])} "
              f"slices); operation times below are raw / factor, setup_s is the median set-up / reference "
              f"interpreter ratio times {REFERENCE_START_S} s")
    for name, value in metrics.items():
        note = report.get("samples", {}).get(name, "")
        if "raw_metrics" in report:
            note = f"raw {report['raw_metrics'][name]:.6g}; {note}"
        print(f"  {name:<44} {value:>16.6g} {units[name]:<6} {note}")
    if w.name == "csv_250k" and not args.trace:
        rows = workloads.CSV_ROWS
        print(f"  rows_per_s ({rows} rows / op_ms_p50)         {rows / (metrics['op_ms_p50'] / 1000):>16.6g} 1/s")
    print(f"failed_frac {failed}/{attempted} = {report['failed_frac']:g}")
    for i, messages in list(out.failures.items())[:5]:
        print(f"  op {i}: {'; '.join(messages)[:300]}")
    print(f"sha256 {report['sha256']} over the outputs of the first {w.digest_ops} operations")
    record = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(report, indent=1) + "\n")
    print(f"record {record}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
