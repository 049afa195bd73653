"""What the benchmark under perfbench/ uses of the package still works.

The benchmark calls layer functions by name, reads the JSON blocks and CSV
columns of the command-line output, and checks every number against scipy.
These tests run its own checks on the package's current output, and resolve
every package name its code reads; they read perfbench/ and change nothing
there.
"""

import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mediation_bounds import cli  # noqa: E402

# Mediator ATE -1/(n0 n1): every restricted assumption set is incompatible.
REPRODUCER = (1, 21164, 0, 18836, 1, 30111, 0, 9888)
PACKAGE = "mediation_bounds"


@pytest.mark.parametrize("layer", tracing.LAYERS, ids=lambda layer: layer[2] + ":" + layer[1])
def test_every_traced_layer_resolves(layer):
    module, path, _, _ = layer
    _, _, fn = tracing._resolve(module, path)
    assert callable(fn)


def package_chains(source: str) -> set[str]:
    """Every name ``source`` imports from the package, and every attribute chain rooted at one.

    A ``from mediation_bounds... import`` anywhere in the source, a function
    body included, binds its names for the whole source.  Each chain is
    written from the module it was imported from, for example
    ``mediation_bounds.model.Method.LP``; a chain ends where a call or a
    subscript does.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == PACKAGE:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                chains.add(".".join([bound[node.id], *reversed(attrs)]))
    return chains


def resolve(chain: str):
    """The object a dotted chain names: its longest importable module prefix, then attributes."""
    parts = chain.split(".")
    for i in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        break
    for attr in parts[i:]:
        owner = getattr(owner, attr)
    return owner


BENCH_SOURCES = [*BENCH.glob("*.py"), *BENCH.glob("tests/*.py")]
BENCH_REFERENCES = sorted(set().union(*(package_chains(path.read_text()) for path in BENCH_SOURCES)))


def test_the_scan_follows_every_package_import():
    source = (
        "import other\n"
        "from mediation_bounds.model import Method as M\n"
        "from mediation_bounds import cli\n"
        "def f(x):\n"
        "    from mediation_bounds import model\n"
        "    return M.LP.value, cli.from_units(x).size, model.from_counts, other.cli.main\n"
    )
    assert package_chains(source) == {
        "mediation_bounds.model.Method",
        "mediation_bounds.cli",
        "mediation_bounds.model",
        "mediation_bounds.model.Method.LP.value",
        "mediation_bounds.cli.from_units",
        "mediation_bounds.model.from_counts",
    }
    assert resolve("mediation_bounds.model.Method.LP") is resolve("mediation_bounds.model").Method.LP
    with pytest.raises(AttributeError):
        resolve("mediation_bounds.model.Method.SIMPLEX")
    with pytest.raises(AttributeError):
        resolve("mediation_bounds.no_such_module")


# Traced runs read some names only on paths that no set-up code takes, such
# as Method.LP in tracing._observe_pos, so each one is resolved here.
@pytest.mark.parametrize("chain", BENCH_REFERENCES, ids=lambda chain: chain.removeprefix("mediation_bounds."))
def test_every_package_name_the_benchmark_reads_resolves(chain):
    resolve(chain)


def test_sweep_tables_pass_the_table_check():
    for counts in workloads.synth_sweep_tables(7, 64).tolist():
        outcomes = workloads.sweep_table(tuple(counts))
        assert checks.check_table(tuple(counts), outcomes) == [], counts


def _cli_output(counts, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.CountsCli._argv(counts, fmt, 3)) == 0
    return out.getvalue()


@pytest.mark.parametrize("counts", [REPRODUCER, *workloads.synth_count_tables(11, 1, 2)], ids=str)
def test_counts_output_passes_the_deep_checks(counts):
    total = sum(counts)
    assert checks.check_cli_json(_cli_output(counts, "json"), {"counts": counts}, total, True) == []
    assert checks.check_cli_csv(_cli_output(counts, "csv"), counts, True) == []
    assert checks.check_cli_plotdata(_cli_output(counts, "plotdata"), counts, True) == []


def test_inference_replications_pass_the_wald_check():
    pool, seeds = workloads.synth_mc_pool(3, 4)
    for records, seed in zip(pool, seeds):
        intervals, ate, iot = workloads.replicate(records, seed)
        assert len(intervals) == len(workloads.CLR_SPECS)
        assert checks.check_wald(records, ate, iot) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_code_runs(name, tmp_path, monkeypatch):
    # The CLI workloads write their set-up inputs in generate(); the CSV one
    # builds its set-up argv from a 40-row file whatever CSV_ROWS is.
    monkeypatch.setattr(workloads, "CSV_ROWS", 40)
    workload = workloads.WORKLOADS[name]()
    if workload.cli:
        workload.generate(5, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, "-c", workload.setup_code], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert child.returncode == 0, child.stderr.decode()[-2000:]
