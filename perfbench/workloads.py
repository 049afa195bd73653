"""The four benchmark workloads: seeded inputs, one operation each, output checks.

CLI workloads describe an operation as an argv for ``mediation-bounds``; the
runner starts it as a subprocess (untraced) or calls ``cli.main`` in process
(traced).  Library workloads call the package in process.  Every input is made
from the workload seed before any timing starts, and the program sees only
those generated inputs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import checks
from mediation_bounds import closed_form, inference, lp_engine, model, oracle
from mediation_bounds.model import Assumptions, AssumptionIncompatibilityError, EstimandSpec

ALL_ASSUMPTIONS = "none,mmr,mmr-pos-mediator"


class Workload:
    name = ""
    cli = False
    block = 1  # the timed loop stops only at a multiple of this many operations
    digest_ops = 1  # the sha256 covers the outputs of this many first operations
    tail = 0.99  # quantile over inputs reported as op_ms_tail
    setup_code = ""

    def generate(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def key(self, i: int) -> int:
        """Operations with equal keys run the same input and must give the same output."""
        return i


class CliWorkload(Workload):
    cli = True

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, stdout: bytes, deep: bool) -> list[str]:
        raise NotImplementedError


class LibraryWorkload(Workload):
    def call(self, i: int):
        raise NotImplementedError

    def canonical(self, result) -> str:
        raise NotImplementedError

    def check(self, i: int, result, deep: bool) -> list[str]:
        raise NotImplementedError


def _cli_setup(*argvs: list[str]) -> str:
    # A fresh interpreter imports the package and runs each argv once.
    return (
        "import contextlib, io, sys\n"
        "from mediation_bounds import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if cli.main(argv) != 0:\n"
        "            sys.exit(1)\n"
    )


# --- csv_250k --------------------------------------------------------------

# A 1,000,000-row file takes 5-7 s per invocation, so a 20 s run holds only
# three or four, too few for a steady median on a host whose speed varies by
# about 11% from one invocation to the next.  250,000 rows still leave ingest
# most of the time.
CSV_ROWS = 250_000
CSV_MEDIATORS = ("m_bin", "m_cont", "m_skew")
CSV_THRESHOLD = 1.5
CSV_NA_SHARE = 0.02


def _milli_text(k: np.ndarray) -> list[str]:
    # k / 1000 printed with three decimals is exactly the decimal k/1000, so
    # float() of the text equals k / 1000.0 computed here.
    return [f"{v:.3f}" for v in (k / 1000.0).tolist()]


def synth_csv(seed: int, rows: int) -> tuple[str, dict[str, tuple[int, ...]]]:
    """CSV text and each mediator's expected eight counts, tabulated with numpy."""
    rng = np.random.default_rng(seed)
    a = (rng.random(rows) < 0.5).astype(np.int64)
    m_bin = (rng.random(rows) < 0.3 + 0.3 * a).astype(np.int64)
    cont_k = np.rint(1000 * rng.normal(0.4 * a + 0.5 * m_bin, 1.0)).astype(np.int64)
    cont_na = rng.random(rows) < CSV_NA_SHARE
    skew_k = np.rint(1000 * np.exp(rng.normal(0.3 * a, 0.8))).astype(np.int64)
    y = (rng.random(rows) < 0.15 + 0.15 * a + 0.25 * m_bin + 0.1 * (cont_k > 0)).astype(np.int64)

    cont_text = _milli_text(cont_k)
    for i in np.flatnonzero(cont_na).tolist():
        cont_text[i] = "NA"
    skew_text = _milli_text(skew_k)
    lines = ["treat,m_bin,m_cont,m_skew,y"]
    lines += [
        f"{ai},{mi},{ci},{si},{yi}"
        for ai, mi, ci, si, yi in zip(a.tolist(), m_bin.tolist(), cont_text, skew_text, y.tolist())
    ]
    text = "\n".join(lines) + "\n"

    cont = cont_k / 1000.0
    observed = np.sort(cont[~cont_na])
    median = observed[(observed.size - 1) // 2]  # the CLI's lower-median convention
    binaries = {
        "m_bin": (m_bin, np.zeros(rows, dtype=bool)),
        "m_cont": ((cont > median).astype(np.int64), cont_na),
        "m_skew": ((skew_k / 1000.0 > CSV_THRESHOLD).astype(np.int64), np.zeros(rows, dtype=bool)),
    }
    expected = {}
    for name in CSV_MEDIATORS:
        m, missing = binaries[name]
        keep = ~missing
        cells = np.bincount(a[keep] * 4 + y[keep] * 2 + m[keep], minlength=8)
        expected[name] = tuple(int(c) for c in cells)
    return text, expected


class Csv250k(CliWorkload):
    """One 250,000-row CSV, three mediators, all three assumption sets."""

    name = "csv_250k"

    def generate(self, seed: int, workdir: Path) -> dict:
        self.seed = seed
        self.path = workdir / "csv_250k.csv"
        text, self.expected = synth_csv(seed, CSV_ROWS)
        self.path.write_text(text)
        tiny_text, _ = synth_csv(seed, 40)
        tiny = workdir / "csv_tiny.csv"
        tiny.write_text(tiny_text)
        self.setup_code = _cli_setup(self._argv(tiny))
        return {"rows": CSV_ROWS, "bytes": len(text), "mediators": list(CSV_MEDIATORS)}

    def __len__(self) -> int:
        return 1 << 20

    def _argv(self, path: Path) -> list[str]:
        return [
            "--data", str(path), "--treatment", "treat", "--outcome", "y",
            "--mediators", ",".join(CSV_MEDIATORS),
            "--dichotomize", f"m_cont=median-gt,m_skew=threshold:{CSV_THRESHOLD}",
            "--assumptions", ALL_ASSUMPTIONS, "--reference", "1", "--format", "json",
            "--seed", str(self.seed),
        ]

    def key(self, i: int) -> int:
        return 0

    def argv(self, i: int) -> list[str]:
        return self._argv(self.path)

    def check(self, i: int, stdout: bytes, deep: bool) -> list[str]:
        return checks.check_cli_json(stdout.decode("utf-8"), self.expected, CSV_ROWS, deep)


# --- counts_cli --------------------------------------------------------------

COUNTS_PER_CYCLE = 12
COUNTS_CYCLES = 16
FORMATS = ("json", "csv", "plotdata")


def synth_count_tables(seed: int, cycles: int, per_cycle: int) -> list[tuple[int, ...]]:
    """Tables whose totals sit on a fixed log grid from 10^2 to 10^7, once per cycle.

    The seed draws each table's arm split and per-arm cell shares and the
    order within a cycle; the grid keeps the size mix, and so the percentiles
    and the peak memory, the same from seed to seed.
    """
    rng = np.random.default_rng(seed)
    totals = np.rint(np.logspace(2, 7, per_cycle)).astype(np.int64)
    tables = []
    for _ in range(cycles):
        for total in rng.permutation(totals).tolist():
            n1 = int(rng.binomial(total - 4, 0.5)) + 2
            arms = []
            for n in (total - n1, n1):
                arms += rng.multinomial(n, rng.dirichlet(np.ones(4))).tolist()
            tables.append(tuple(int(c) for c in arms))
    return tables


class CountsCli(CliWorkload):
    """--counts tables, all three assumption sets, formats json/csv/plotdata in turn."""

    name = "counts_cli"
    block = COUNTS_PER_CYCLE
    digest_ops = COUNTS_PER_CYCLE
    # A run holds about 36 invocations, so only 3 or 4 lie beyond the p90; the
    # fixed size grid still puts the p90 on the same table size in every run.
    tail = 0.90

    def generate(self, seed: int, workdir: Path) -> dict:
        self.seed = seed
        self.tables = synth_count_tables(seed, COUNTS_CYCLES, COUNTS_PER_CYCLE)
        self.setup_code = _cli_setup(*(self._argv((6, 5, 4, 3, 3, 4, 5, 6), fmt, 0) for fmt in FORMATS))
        totals = sorted({sum(t) for t in self.tables})
        return {"tables": len(self.tables), "per_cycle": COUNTS_PER_CYCLE, "totals": totals}

    def __len__(self) -> int:
        return len(self.tables)

    @staticmethod
    def _argv(counts, fmt: str, seed: int) -> list[str]:
        return [
            "--counts", ",".join(str(c) for c in counts), "--assumptions", ALL_ASSUMPTIONS,
            "--format", fmt, "--seed", str(seed),
        ]

    def argv(self, i: int) -> list[str]:
        return self._argv(self.tables[i], FORMATS[i % len(FORMATS)], self.seed + i)

    def check(self, i: int, stdout: bytes, deep: bool) -> list[str]:
        counts = self.tables[i]
        text = stdout.decode("utf-8")
        fmt = FORMATS[i % len(FORMATS)]
        if fmt == "json":
            return checks.check_cli_json(text, {"counts": counts}, sum(counts), deep)
        if fmt == "csv":
            return checks.check_cli_csv(text, counts, deep)
        return checks.check_cli_plotdata(text, counts, deep)


# --- table_sweep -------------------------------------------------------------

SWEEP_TABLES = 1 << 18
# Tables per operation.  About half the tables are incompatible and take a
# fast path (~2.5 ms) while the rest solve LPs (~7 ms), so one table's time
# is bimodal and its median falls in the gap between the modes.  A pair's
# time has three modes (no, one or two LP tables) holding about 25%, 50% and
# 25% of the pairs, so the median lies inside the middle one.
SWEEP_BATCH = 2

SWEEP_SPECS = (
    EstimandSpec(0, Assumptions.NONE),
    EstimandSpec(1, Assumptions.NONE),
    EstimandSpec(0, Assumptions.MMR),
    EstimandSpec(1, Assumptions.MMR),
    EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR, 1),
    EstimandSpec(0, Assumptions.MMR_POS_MEDIATOR, 1),
    EstimandSpec(0, Assumptions.MMR_POS_MEDIATOR, -1),
    EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR, -1),
)


def synth_sweep_tables(seed: int, count: int) -> np.ndarray:
    """(count, 8) tables: per-arm Dirichlet(1) shares, arm sizes log-uniform on [10, 10^6]."""
    rng = np.random.default_rng(seed)
    sizes = np.rint(10.0 ** rng.uniform(1.0, 6.0, size=(count, 2))).astype(np.int64)
    shares = rng.dirichlet(np.ones(4), size=(count, 2))
    return rng.multinomial(sizes, shares).reshape(count, 8)


def sweep_table(counts: tuple[int, ...]) -> list:
    """All eight specs on one table, each by the route the package exposes for it."""
    dist = model.from_counts(counts)
    outcomes = []
    for spec in SWEEP_SPECS:
        ref = spec.reference
        try:
            if spec.assumptions is Assumptions.NONE:
                anie = closed_form.bounds_no_assumption(dist, ref)
            elif spec.assumptions is Assumptions.MMR:
                anie = closed_form.bounds_mmr(dist, ref)
            elif ref == 1 and spec.mediator_effect_sign == 1:
                anie = closed_form.bounds_mmr_pos_mediator(dist, 1)
            else:
                anie = lp_engine.anie_bounds_lp(dist, spec)
        except AssumptionIncompatibilityError as exc:
            outcomes.append((spec, exc, None))
            continue
        ande = None if anie.incompatible else closed_form.ande_bounds(dist, 1 - ref, anie)
        outcomes.append((spec, anie, ande))
    return outcomes


class TableSweep(LibraryWorkload):
    """Batches of distinct count tables through from_counts and all eight (assumptions, reference, sign) specs."""

    name = "table_sweep"
    digest_ops = 256 // SWEEP_BATCH
    # The p95 lies inside the mode of pairs that solve LPs for both tables;
    # the p99 lies beyond it, where host noise rather than the tables decides.
    tail = 0.95
    setup_code = (
        "from mediation_bounds import closed_form, lp_engine, model\n"
        "from mediation_bounds.model import Assumptions, EstimandSpec\n"
        "dist = model.from_counts((6, 5, 4, 3, 3, 4, 5, 6))\n"
        "for ref in (0, 1):\n"
        "    closed_form.ande_bounds(dist, 1 - ref, closed_form.bounds_no_assumption(dist, ref))\n"
        "    closed_form.bounds_mmr(dist, ref)\n"
        "closed_form.bounds_mmr_pos_mediator(dist, 1)\n"
        "lp_engine.anie_bounds_lp(dist, EstimandSpec(0, Assumptions.MMR_POS_MEDIATOR, -1))\n"
    )

    def generate(self, seed: int, workdir: Path) -> dict:
        self.tables = [tuple(row) for row in synth_sweep_tables(seed, SWEEP_TABLES).tolist()]
        return {"tables": len(self.tables), "tables_per_op": SWEEP_BATCH, "arm_size_range": [10, 10**6]}

    def __len__(self) -> int:
        return len(self.tables) // SWEEP_BATCH

    def batch(self, i: int) -> list[tuple[int, ...]]:
        return self.tables[i * SWEEP_BATCH:(i + 1) * SWEEP_BATCH]

    def call(self, i: int):
        return [sweep_table(counts) for counts in self.batch(i)]

    def canonical(self, result) -> str:
        return "\n".join(
            f"{anie!r} | {ande!r}" if not isinstance(anie, Exception) else f"{type(anie).__name__}: {anie}"
            for outcomes in result
            for _, anie, ande in outcomes
        )

    def check(self, i: int, result, deep: bool) -> list[str]:
        if not deep:
            return []
        return [message for counts, outcomes in zip(self.batch(i), result) for message in checks.check_table(counts, outcomes)]


# --- inference_mc ------------------------------------------------------------

MC_POOL = 128  # each input runs about ten times per run, so op_ms_tail takes its median
MC_DRAWS = 2000
MC_ARM_RANGE = (20, 20_000)

CLR_SPECS = (
    EstimandSpec(0, Assumptions.NONE),
    EstimandSpec(1, Assumptions.NONE),
    EstimandSpec(0, Assumptions.MMR),
    EstimandSpec(1, Assumptions.MMR),
    EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR, 1),
)


def mc_population() -> oracle.FullPopulation64:
    """The fixed monotone-mediator population every inference_mc run samples from.

    Principal strata (M(1), M(0)) = complier, always-taker, never-taker with
    independent potential outcomes.  Cell (y=0, m=1) is rare in both arms
    (about 1.3% and 1.4%), so small samples often leave it empty and take the
    add-half smoothing path, while large samples do not.
    """
    q = np.zeros((2,) * 6)  # axes y11, y10, y01, y00, m1, m0
    strata = (
        ((1, 0), 0.30, (0.97, 0.40, 0.60, 0.30)),
        ((1, 1), 0.14, (0.97, 0.50, 0.90, 0.50)),
        ((0, 0), 0.56, (0.50, 0.60, 0.50, 0.35)),
    )
    for (m1, m0), mass, probs in strata:
        y11, y10, y01, y00 = ([1.0 - p, p] for p in probs)
        q[:, :, :, :, m1, m0] = mass * np.einsum("i,j,k,l->ijkl", y11, y10, y01, y00)
    return oracle.FullPopulation64(q)


def synth_mc_pool(seed: int, size: int) -> tuple[list[np.ndarray], list[int]]:
    """Record arrays sampled from the fixed population; arm sizes stratified log-uniform."""
    population = mc_population()
    rng = np.random.default_rng(seed)
    lo, hi = (math.log10(v) for v in MC_ARM_RANGE)
    strata = (np.arange(size) + rng.random(size)) / size
    arms = np.rint(10.0 ** (lo + (hi - lo) * strata)).astype(np.int64)
    arms = rng.permutation(arms).tolist()
    sample_seeds = rng.integers(0, 2**63, size=size).tolist()
    inference_seeds = rng.integers(0, 2**63, size=size).tolist()
    pool = [oracle.sample_records(population, n, s) for n, s in zip(arms, sample_seeds)]
    return pool, inference_seeds


def replicate(records: np.ndarray, seed: int):
    config = inference.InferenceConfig(draws=MC_DRAWS, seed=seed)
    intervals = [inference.clr_bounds(records, spec, config) for spec in CLR_SPECS]
    return intervals, inference.ate_test(records, config), inference.iot_test(records, config)


class InferenceMc(LibraryWorkload):
    """Monte-Carlo replications of clr_bounds on five specs plus ate_test and iot_test."""

    name = "inference_mc"
    digest_ops = 128
    setup_code = (
        "import numpy as np\n"
        "from mediation_bounds import inference\n"
        "from mediation_bounds.model import Assumptions, EstimandSpec\n"
        "records = np.array([(a, m, y) for a in (0, 1) for m in (0, 1) for y in (0, 1)] * 3, dtype=np.uint8)\n"
        f"config = inference.InferenceConfig(draws={MC_DRAWS}, seed=0)\n"
        "inference.clr_bounds(records, EstimandSpec(1, Assumptions.MMR), config)\n"
        "inference.ate_test(records, config)\n"
        "inference.iot_test(records, config)\n"
    )

    def generate(self, seed: int, workdir: Path) -> dict:
        self.pool, self.seeds = synth_mc_pool(seed, MC_POOL)
        rows = [len(r) for r in self.pool]
        return {"pool": MC_POOL, "records_total": sum(rows), "records_min": min(rows), "records_max": max(rows)}

    def __len__(self) -> int:
        return 1 << 30

    def key(self, i: int) -> int:
        return i % MC_POOL

    def call(self, i: int):
        k = self.key(i)
        return replicate(self.pool[k], self.seeds[k])

    def canonical(self, result) -> str:
        intervals, ate, iot = result
        return "\n".join([repr(iv) for iv in intervals] + [repr(ate), repr(iot)])

    def check(self, i: int, result, deep: bool) -> list[str]:
        _, ate, iot = result
        return checks.check_wald(self.pool[self.key(i)], ate, iot)


WORKLOADS = {w.name: w for w in (Csv250k, CountsCli, TableSweep, InferenceMc)}
