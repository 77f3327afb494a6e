"""The benchmark's workloads: fixed operation lists built from a seed.

Every operation goes through a public entry point of the package: the
``qlease`` command (``qlease.cli.main``, in-process), an acceptance
criterion (``qlease.suite.c01_*`` ... ``c10_*``) or a design element
(``IndexedCliffordDesign(q).element``).  Each returns a JSON report, and
its sha256 is the operation's digest.  Every input the package sees is
drawn here from the workload seed.

Each operation carries a check of its output, which the runner calls
outside the timed window.  The reasons for each workload are in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qlease import cli, designs, games, qas, suite
from qlease.leasing import SslScheme
from qlease.qmath import ATOL

from layers import CRITERIA

GAME_SCHEME = (1, 1, 6)
#: Trials per zoo game, sized so that the oracle check below stays about as
#: narrow as the suite's 99 % rule on 1000 trials.
ZOO_TRIALS = 2000
KEYSEARCH_TRIALS = 1000
KEYSEARCH_BUDGETS = (1, 4, 16, 64)
WIDE_SCHEME = "2,1,6"
WIDE_QAS_SCHEME = "2,2,10"
WIDE_TRIALS = 150
WIDE_PAIRS = 200
WIDE_QUBITS = (3, 4, 5, 6)
#: Distinct element indices per qubit count; each is requested twice.
WIDE_ELEMENTS = 12

#: Confidence of the Wilson interval the zoo estimates are checked against.
#: The suite's harness-vs-oracles rule uses 99 %, which misses a correct
#: estimate once in a hundred seeds; the benchmark runs on many seeds, and
#: at 99 % a correct program would fail about one games run in 25.  At
#: 1 - 1e-4 on 2000 trials the interval is about +-4 points at p = 1/3.
CHECK_CONFIDENCE = 1 - 1e-4


@dataclass
class Outcome:
    report: str  # JSON text; its sha256 is the operation's digest
    payload: object  # what the check reads
    trials: int = 0  # Monte Carlo game trials the operation ran


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]  # failure reason, or None
    adversary: str | None = None


def digest(outcome: Outcome) -> str:
    return hashlib.sha256(outcome.report.encode()).hexdigest()


def derive_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def cli_op(name: str, argv: list[str], check, adversary: str | None = None) -> Op:
    def run() -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--json"])
        lines = out.getvalue().splitlines(keepends=True)
        start = next((i for i, line in enumerate(lines) if line[:1] in "{["), len(lines))
        report = "".join(lines[start:])
        payload = json.loads(report) if report else None
        return Outcome(report, (code, payload), payload.get("trials", 0) if payload else 0)

    return Op(name, run, _exit_ok(check), adversary)


def _exit_ok(check):
    def checked(outcome: Outcome) -> str | None:
        code, payload = outcome.payload
        if code != cli.EXIT_OK or payload is None:
            return f"exit code {code}"
        return check(payload) if check else None

    return checked


def _oracle_check(oracle: str):
    def check(report: dict) -> str | None:
        value = _zoo_oracles()[oracle]
        lo, hi = games.wilson_interval(report["wins"], report["trials"], CHECK_CONFIDENCE)
        if not lo <= value <= hi:
            return f"oracle {value:.4f} outside [{lo:.4f}, {hi:.4f}]"
        return None

    return check


def _security_sanity(report: dict) -> str | None:
    """The suite's security-sanity rule for one report."""
    excess = report["estimate"] - report["bound"] - (report["ci_hi"] - report["estimate"])
    return f"estimate exceeds the bound by {excess:.4f}" if excess > 0 else None


@functools.cache
def _zoo_oracles() -> dict[str, float]:
    """Closed-form win rates of the zoo at the CLI's default game options."""
    scheme = qas.build_scheme(*GAME_SCHEME)
    spec = games.default_cp_spec(scheme)
    ssl = SslScheme(scheme)
    circuit, challenge = spec.circuit_dist, spec.charlie_family
    return {
        "trivial-forward": games.oracle_trivial_forward(spec),
        "give-to-charlie": games.oracle_give_to_charlie(spec),
        "honest-return": games.oracle_honest_return(ssl, circuit, challenge),
        "keep-program": games.oracle_keep_program(ssl, circuit, challenge),
    }


def _criterion_op(fn_name: str, seed: int) -> Op:
    def run() -> Outcome:
        result = getattr(suite, fn_name)(seed)
        report = result.to_json_dict()
        return Outcome(json.dumps(report), report)

    def check(outcome: Outcome) -> str | None:
        report = outcome.payload
        return None if report["pass"] else f"measured {report['measured']} vs bound {report['bound']}"

    return Op(CRITERIA[fn_name], run, check)


def _elements_op(qubits: int, indices: list[int]) -> Op:
    def run() -> Outcome:
        design = designs.IndexedCliffordDesign(qubits)
        mats = [design.element(i) for i in indices]
        h = hashlib.sha256()
        for m in mats:
            h.update(np.ascontiguousarray(m).tobytes())
        report = {"qubits": qubits, "indices": [str(i) for i in indices], "sha256": h.hexdigest()}
        return Outcome(json.dumps(report), mats)

    def check(outcome: Outcome) -> str | None:
        eye = np.eye(1 << qubits)
        worst = max(float(np.max(np.abs(m.conj().T @ m - eye))) for m in outcome.payload)
        return f"unitarity deviation {worst:.2e} above {ATOL}" if worst > ATOL else None

    return Op(f"elements-q{qubits}", run, check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _games_ops(seed: int) -> list[Op]:
    scheme = ",".join(map(str, GAME_SCHEME))
    zoo = [
        ("cp", "trivial-forward"),
        ("cp", "give-to-charlie"),
        ("ssl", "honest-return"),
        ("ssl", "keep-program"),
    ]
    ops = [
        cli_op(
            f"{game}-{adv}",
            [game, "--adversary", adv, "--scheme", scheme, "--trials", str(ZOO_TRIALS),
             "--seed", str(derive_seed(seed, k))],
            _oracle_check(adv),
            adv,
        )
        for k, (game, adv) in enumerate(zoo)
    ]
    for k, budget in enumerate(KEYSEARCH_BUDGETS, start=len(zoo)):
        ops.append(
            cli_op(
                f"cp-keysearch-{budget}",
                ["cp", "--adversary", "keysearch", "--budget", str(budget), "--scheme", scheme,
                 "--trials", str(KEYSEARCH_TRIALS), "--seed", str(derive_seed(seed, k))],
                _security_sanity,
                f"keysearch-{budget}",
            )
        )
    return ops


def _exact_ops(seed: int) -> list[Op]:
    return [_criterion_op(fn, derive_seed(seed, k)) for k, fn in enumerate(CRITERIA)]


def _wide_ops(seed: int) -> list[Op]:
    ops = [
        cli_op(
            "design-check-q3",
            ["design-check", "--qubits", "3", "--pairs", str(WIDE_PAIRS), "--seed", str(derive_seed(seed, 0))],
            None,
        ),
        cli_op(
            "qas-verify",
            ["qas-verify", "--scheme", WIDE_QAS_SCHEME, "--seed", str(derive_seed(seed, 1))],
            None,
        ),
    ]
    games_ = [("cp", "give-to-charlie"), ("cp", "trivial-forward"), ("ssl", "keep-program")]
    for k, (game, adv) in enumerate(games_, start=2):
        argv = [game, "--adversary", adv, "--scheme", WIDE_SCHEME, "--trials", str(WIDE_TRIALS),
                "--seed", str(derive_seed(seed, k))]
        ops.append(cli_op(f"{game}-{adv}", argv, None, adv))
    # randrange draws big ints exactly; the group at 5-6 qubits outgrows int64
    rng = random.Random(derive_seed(seed, 100))
    for q in WIDE_QUBITS:
        n = designs.IndexedCliffordDesign(q).cardinality
        distinct: set[int] = set()
        while len(distinct) < WIDE_ELEMENTS:
            distinct.add(rng.randrange(n))
        requests = sorted(distinct) * 2
        rng.shuffle(requests)
        ops.append(_elements_op(q, requests))
    return ops


def setup(workload: str, seed: int) -> list[Op]:
    """Make the workload ready: its schemes and designs built, its
    operations drawn from ``seed``.  Returns the operation list of one pass."""
    if workload == "games":
        qas.build_scheme(*GAME_SCHEME)  # enumerates the 2-qubit Clifford group
        return _games_ops(seed)
    if workload == "exact":
        designs.clifford_enumerate(1)
        qas.build_scheme(1, 1, 14)
        return _exact_ops(seed)
    if workload == "wide":
        qas.build_scheme(*map(int, WIDE_SCHEME.split(",")))
        qas.build_scheme(*map(int, WIDE_QAS_SCHEME.split(",")))
        return _wide_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
