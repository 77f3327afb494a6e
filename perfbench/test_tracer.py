"""Self-test of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q

Runs a short traced pass of real operations twice and checks that the
counts repeat exactly, that from-imported names are wrapped in their
calling modules, and that self times are consistent with the pass wall
time.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TRIALS = 25


def _game(game: str, adversary: str, *extra: str) -> workloads.Op:
    argv = [game, "--adversary", adversary, "--scheme", "1,1,6", "--trials", str(TRIALS), "--seed", "5", *extra]
    return workloads.cli_op(f"{game}-{adversary}", argv, None, adversary)


OPS = {
    "trivial-forward": _game("cp", "trivial-forward"),
    "give-to-charlie": _game("cp", "give-to-charlie"),
    "keep-program": _game("ssl", "keep-program"),
    "keysearch-4": _game("cp", "keysearch", "--budget", "4"),
}


def _traced_pass(ops):
    wall, records, snapshot = run.traced_pass(ops, Tracer(layers.TARGETS))
    assert all(r.error is None for r in records)
    return wall, layers.pass_metrics(snapshot)


@pytest.fixture(scope="module")
def two_runs():
    workloads.setup("games", 0)  # enumerate the 2-qubit group before tracing
    ops = list(OPS.values()) + workloads.setup("wide", 3)[-1:]
    return _traced_pass(ops), _traced_pass(ops)


def test_counts_repeat_exactly(two_runs):
    (_, first), (_, second) = two_runs
    units = layers.metric_units()
    counts = {k for k in first if units[k] == "count"}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["games.KeysearchPirate.split.calls"] == TRIALS
    assert first["designs.element.calls"] == 2 * workloads.WIDE_ELEMENTS


@pytest.mark.parametrize("adversary,per_trial", [("trivial-forward", 1), ("give-to-charlie", 2)])
def test_measure_projective_is_wrapped_where_imported(adversary, per_trial):
    # games calls measure_projective through its own from-import
    _, values = _traced_pass([OPS[adversary]])
    assert values["qmath.measure_projective.calls"] == per_trial * TRIALS


def test_self_times_are_consistent(two_runs):
    for wall, values in two_runs:
        self_times = {k: v for k, v in values.items() if k.endswith(".self_s")}
        assert all(v >= 0 for v in self_times.values())
        assert 0 < sum(self_times.values()) <= wall


def test_uninstall_restores_the_package():
    from qlease import games, qmath

    original = qmath.measure_projective
    tracer = Tracer(layers.TARGETS)
    tracer.install()
    assert games.measure_projective is not original
    tracer.uninstall()
    assert games.measure_projective is original
    assert qmath.measure_projective is original
