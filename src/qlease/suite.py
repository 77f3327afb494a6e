"""The acceptance battery: every checkable claim, one criterion each.

Each criterion computes a headline ``measured`` number, compares it with
its ``bound``, and reports pass/fail with a human-readable note.  All
randomness flows from one master seed through deterministic derivation,
so a battery run is a pure function of its seed: the determinism
criterion re-runs everything and byte-compares the serialized results.

The theorem-shaped checks deserve two standing remarks.  First, the
recorded authentication parameter epsilon exceeds 1/2 at desk scale, so
claims conditioned on ``epsilon <= 1/2`` gate themselves off (and say
so) rather than asserting vacuously.  Second, the security-game checks
run a finite adversary zoo against bounds that quantify over *all*
adversaries: they can falsify, never certify, and are labeled sanity
checks for that reason.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import copyprotect as cp
from . import designs, games, qas
from .leasing import SslScheme
from .qmath import (
    haar_unitary,
    random_density,
    random_pure_state,
    spawn_rng,
    state_distance,
    trace_distance,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    measured: float
    bound: float
    passed: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": float(self.measured),
            "bound": float(self.bound),
            "pass": bool(self.passed),
        }


def _sub_seed(seed: int, index: int) -> int:
    """Derived integer seed for one criterion (order-independent)."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def c01_qas_correctness(seed: int) -> CriterionResult:
    """Authenticate-then-verify returns the input exactly, accept
    probability one, for random keys and random pure/mixed states: one
    ``qas.round_trips`` call per (t, state) over all 200 keys, one stacked
    ``trace_distance`` call for every decoded message."""
    worst = 0.0
    rng = spawn_rng(seed, 1)
    decoded = np.empty((2, 200, 20, 2, 2), dtype=complex)
    inputs = np.empty((2, 1, 20, 2, 2), dtype=complex)
    for ti, t in enumerate((1, 2)):
        scheme = qas.build_scheme(1, t, 14)
        keys = rng.integers(1 << 14, size=200)
        pure = [random_pure_state(1, rng) for _ in range(10)]
        mixed = [random_density(1, rng) for _ in range(10)]
        inputs[ti, 0] = [st.density().matrix for st in pure] + [st.matrix for st in mixed]
        # one state at a time: all ten densities at once stack 2 MB at t = 2
        for si, state in enumerate(pure + mixed):
            accept, decoded[ti, :, si] = qas.round_trips(scheme, keys, keys, [state])
            worst = max(worst, float(np.max(np.abs(accept - 1.0))))
    worst = max(worst, float(np.max(trace_distance(decoded, np.broadcast_to(inputs, decoded.shape)))))
    return CriterionResult(
        name="qas-correctness",
        measured=worst,
        bound=1e-9,
        passed=worst < 1e-9,
        note="max deviation over t in {1,2}, 200 keys x 20 states",
    )


def c02_wrong_key_bound(seed: int) -> CriterionResult:
    """Average acceptance of fixed states over the whole design equals
    2^-t exactly, and the key-space average respects the 2-epsilon cap."""
    scheme = qas.build_scheme(1, 1, 14)
    rng = spawn_rng(seed, 2)
    worst = 0.0
    cap_ok = True
    for _ in range(20):
        state = random_density(2, rng)
        design_avg = qas.avg_design_accept(scheme, state)
        worst = max(worst, abs(design_avg - 0.5))
        key_avg = qas.avg_wrong_key_accept(scheme, state)
        cap_ok = cap_ok and key_avg <= 2 * scheme.epsilon
    return CriterionResult(
        name="wrong-key-bound",
        measured=worst,
        bound=1e-9,
        passed=worst < 1e-9 and cap_ok,
        note=f"design average vs 2^-1 over 20 states; key average <= 2eps: {cap_ok}",
    )


def c03_design_certificate(seed: int) -> CriterionResult:
    """Frame potential 2, exactly, for the Clifford groups on 1 and 2
    qubits; a random unitary set of the same size as the 1-qubit group
    lands visibly above (negative control)."""
    rng = spawn_rng(seed, 3)
    dev1 = abs(designs.clifford_frame_potential(1) - 2.0)
    dev2 = abs(designs.clifford_frame_potential(2) - 2.0)
    control = designs.frame_potential(designs.random_unitary_set(1, 24, rng))
    dev = max(dev1, dev2)
    return CriterionResult(
        name="design-certificate",
        measured=dev,
        bound=1e-9,
        passed=dev < 1e-9 and control > 2.1,
        note=f"group fp dev {dev1:.2e} at q=1, {dev2:.2e} at q=2 (<1e-9), control {control:.3f} (>2.1)",
    )


def _pair_counts(family) -> np.ndarray:
    """``counts[x0, x1, y0, y1]``: the parameters that send distinct inputs x0, x1 to y0, y1."""
    n = 1 << family.bits
    images = np.array([[family.apply(r, x) for x in range(n)] for r in family.params()])
    x0, x1 = np.nonzero(~np.eye(n, dtype=bool))
    counts = np.zeros((n, n, n, n), dtype=np.int64)
    np.add.at(counts, (x0, x1, images[:, x0], images[:, x1]), 1)
    return counts


def c04_pairwise_independence(seed: int) -> CriterionResult:
    """Every distinct input pair maps to every distinct output pair under
    exactly size/(2^l (2^l - 1)) parameters, exhaustively at l = 2, 3."""
    worst = 0
    for bits in (2, 3):
        fam = designs.PairwisePermFamily(bits)
        n = 1 << bits
        x0, x1 = np.nonzero(~np.eye(n, dtype=bool))
        distinct = _pair_counts(fam)[x0, x1][:, x0, x1]
        worst = max(worst, int(np.abs(distinct - fam.size // (n * (n - 1))).max()))
    return CriterionResult(
        name="pairwise-independence",
        measured=float(worst),
        bound=0.0,
        passed=worst == 0,
        note="max count deviation over all pairs at l in {2,3}",
    )


def c05_eps_uniform(seed: int) -> CriterionResult:
    """The mod map's exact statistical distance never exceeds
    |B| / (4 |A|), over random domain/range sizes."""
    rng = spawn_rng(seed, 5)
    worst = Fraction(-1)
    for _ in range(1000):
        k = int(rng.integers(1, 17))
        b = int(rng.integers(1, 4 * (1 << k) + 1))
        m = designs.EpsUniformMap(k, b)
        worst = max(worst, m.epsilon_prime - m.bound)
    return CriterionResult(
        name="eps-uniform-bound",
        measured=float(worst),
        bound=0.0,
        passed=worst <= 0,
        note="max (epsilon' - bound) over 1000 random (k, |B|), exact rationals",
    )


def c06_protection_correctness(seed: int) -> CriterionResult:
    """Exact correctness under the half-point distribution equals
    1 - (wrong-key average excluding the point)/2; the >= 1 - epsilon
    claim applies only when the recorded epsilon is at most 1/2."""
    scheme = qas.build_scheme(1, 1, 14)
    rng = spawn_rng(seed, 6)
    worst = 0.0
    gate_ok = True
    gated = scheme.epsilon > 0.5
    for _ in range(50):
        p = int(rng.integers(1 << 14))
        corr = cp.correctness_exact(scheme, p, cp.PointFamily(14, 0.5))
        ident = 1.0 - 0.5 * cp.wrong_key_average_excluding(scheme, p)
        worst = max(worst, abs(corr - ident))
        if not gated:
            gate_ok = gate_ok and corr >= 1.0 - scheme.epsilon
    note = "identity check over 50 points"
    if gated:
        note += f"; eps={scheme.epsilon:.3f}>1/2, 1-eps claim gated off"
    return CriterionResult(
        name="protection-correctness",
        measured=worst,
        bound=1e-9,
        passed=worst < 1e-9 and gate_ok,
        note=note,
    )


def _flagged_blocks(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sizes, blocks, lhs)``: 100 instances of 2 to 4 orthogonal flags on
    C^4, a 2-qubit block per flag and side, ``lhs`` their sums of flag (x) block."""
    sizes = np.empty(100, dtype=int)
    blocks = np.zeros((2, 100, 4, 4, 4), dtype=complex)
    lhs = np.zeros((2, 100, 16, 16), dtype=complex)
    for i in range(100):
        j = sizes[i] = int(rng.integers(2, 5))
        basis = haar_unitary(4, rng)[:, :j]
        for jj in range(j):
            flag = np.outer(basis[:, jj], basis[:, jj].conj())
            for side in (0, 1):
                g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                blocks[side, i, jj] = g @ g.conj().T / 4
            lhs[:, i] += (flag[:, None, :, None] * blocks[:, i, jj, None, :, None, :]).reshape(2, 16, 16)
    return sizes, blocks, lhs


def c07_trace_distance_orthogonal(seed: int) -> CriterionResult:
    """Distance between block states over orthogonal flags is the sum of
    blockwise distances: one stacked ``trace_distance`` call for the
    blocks and one for the whole spaces, each instance's block distances
    summed in block order."""
    sizes, blocks, lhs = _flagged_blocks(spawn_rng(seed, 7))
    rhs = np.cumsum(trace_distance(*blocks), axis=-1)[np.arange(100), sizes - 1]
    worst = float(np.max(np.abs(trace_distance(*lhs) - rhs)))
    return CriterionResult(
        name="trace-distance-orthogonal",
        measured=worst,
        bound=1e-8,
        passed=worst < 1e-8,
        note="100 random instances, up to 4 orthogonal flags, 2-qubit blocks",
    )


def c08_reusability(seed: int) -> CriterionResult:
    """Evaluation at the point returns the program exactly; averaged over
    the half-point distribution, the dephasing damage stays within 4x the
    correctness error (constant recorded)."""
    scheme = qas.build_scheme(1, 1, 14)
    rng = spawn_rng(seed, 8)
    exact_dev = 0.0
    worst_excess = -np.inf
    worst_const = 0.0
    family = cp.PointFamily(14, 0.5)
    for _ in range(5):
        p = int(rng.integers(1 << 14))
        program = cp.protect(scheme, p)
        original = program.state
        bit, post = cp.evaluate_preserving(program, p, rng)
        exact_dev = max(exact_dev, state_distance(post.state, original))
        if bit != 1:
            exact_dev = max(exact_dev, 1.0)
        # Exact damage: dephasing a pure program across the accept split of
        # key x moves it by sqrt(a_x (1 - a_x)) in trace distance, a_x its
        # acceptance probability.  Summed by numpy's pairwise sum, not a
        # BLAS dot, whose threaded form sums in per-thread parts.
        acc = np.clip(qas.acceptance_by_index(scheme, original), 0, 1)
        damage = float(np.sum(family(p).class_weights(scheme.key_map) * np.sqrt(acc * (1 - acc))))
        eta = 1.0 - cp.correctness_exact(scheme, p, family)
        worst_excess = max(worst_excess, damage - 4 * eta)
        worst_const = max(worst_const, damage / eta)
    return CriterionResult(
        name="reusability",
        measured=float(worst_excess),
        bound=0.0,
        passed=exact_dev < 1e-9 and worst_excess <= 0,
        note=f"point-eval deviation {exact_dev:.2e} (<1e-9); damage/eta constant {worst_const:.2f} (<=4)",
    )


def c09_mix_correctness(seed: int) -> CriterionResult:
    """The permutation wrapper turns average-case correctness into a
    worst-case per-input guarantee, exhaustively at l = 2."""
    scheme = qas.build_scheme(1, 1, 2)
    eta = 1.0 - min(cp.correctness_exact(scheme, p, cp.PointFamily(2, 0.5)) for p in range(4))
    worst = max(cp.mix_error_exact(scheme, p, x) for p in range(4) for x in range(4))
    return CriterionResult(
        name="mix-worst-case-correctness",
        measured=worst,
        bound=2 * eta + 1e-12,
        passed=worst <= 2 * eta + 1e-12,
        note=f"worst per-input error vs 2*eta with eta={eta:.4f}, exhaustive r at l=2",
    )


GAME_BITS = 6


def _game_scheme() -> qas.QasScheme:
    return qas.build_scheme(1, 1, GAME_BITS)


def c10_baselines(seed: int) -> CriterionResult:
    """Trivial-guess baselines are exactly one half for uniform points
    and half-point challenges, for both games."""
    ok = True
    for bits in (3, GAME_BITS):
        d = cp.ChallengeDistribution(bits)
        fam = cp.PointFamily(bits, 0.5)
        ok = ok and games.p_marg(d, fam) == Fraction(1, 2)
        ok = ok and games.p_ind(d, fam) == Fraction(1, 2)
    return CriterionResult(
        name="baselines",
        measured=0.0 if ok else 1.0,
        bound=0.0,
        passed=ok,
        note="p_marg and p_ind equal 1/2 exactly (rational arithmetic)",
    )


def _zoo_reports(seed: int, trials: int = 10000) -> list[tuple[games.GameReport, float]]:
    """The four standard adversaries, each with its exact win rate."""
    scheme = _game_scheme()
    spec = games.default_cp_spec(scheme)
    ssl = SslScheme(scheme)
    leasing = games.leasing_spec(ssl, spec.circuit_dist, spec.charlie_family)
    out = []
    for k, adversary in enumerate((games.trivial_forward(scheme), games.give_to_charlie(scheme))):
        rep = games.run_experiment_free(spec, *adversary, trials, _sub_seed(seed, 111 + k))
        out.append((rep, games.exact_win(spec, *adversary)))
    for k, adversary in enumerate((games.honest_return(ssl), games.keep_program(ssl))):
        rep = games.run_experiment_ssl(
            ssl, spec.circuit_dist, spec.charlie_family, *adversary, trials, _sub_seed(seed, 113 + k)
        )
        out.append((rep, games.exact_win(leasing, *adversary)))
    return out


def _keysearch_reports(seed: int, trials: int = 10000) -> dict[int, games.GameReport]:
    scheme = _game_scheme()
    spec = games.default_cp_spec(scheme)
    out = {}
    for size in (1, 4, 16, 64):
        adv = games.keysearch_adversary(scheme, budget_size=size)
        out[size] = games.run_experiment_free(
            spec, *adv, trials, _sub_seed(seed, 130 + size)
        )
    return out


def c11_harness_vs_oracles(zoo: list[tuple[games.GameReport, float]]) -> CriterionResult:
    """Monte Carlo estimates of the four standard adversaries land inside
    the 99% Wilson interval around their exact values (:func:`games.exact_win`)."""
    worst = 0.0
    inside = True
    names = []
    for rep, oracle in zoo:
        worst = max(worst, abs(rep.estimate - oracle))
        ok = rep.ci_lo <= oracle <= rep.ci_hi
        inside = inside and ok
        names.append(f"{rep.adversary}:{rep.estimate:.4f}/{oracle:.4f}")
    return CriterionResult(
        name="harness-vs-oracles",
        measured=worst,
        bound=max(r.ci_hi - r.ci_lo for r, _ in zoo) / 2,
        passed=inside,
        note="; ".join(names),
    )


def c12_security_sanity(
    zoo: list[tuple[games.GameReport, float]], keysearch: dict[int, games.GameReport]
) -> CriterionResult:
    """No shipped adversary beats the theorem bound plus interval slack.

    A finite zoo can only falsify the universally quantified theorems,
    never certify them; this is a sanity check, and at desk scale the
    recorded epsilon makes the bounds loose.
    """
    worst = -np.inf
    for rep in [r for r, _ in zoo] + list(keysearch.values()):
        worst = max(worst, rep.estimate - rep.bound - (rep.ci_hi - rep.estimate))
    return CriterionResult(
        name="security-sanity",
        measured=float(worst),
        bound=0.0,
        passed=worst <= 0,
        note="max (estimate - theorem bound - CI slack); falsification only",
    )


def c13_bruteforce_degradation(keysearch: dict[int, games.GameReport]) -> CriterionResult:
    """Key-search win rates decay as the budget grows: wrong-key checks
    damage the program and mislead the guesser, so errors accumulate."""
    rates = {size: keysearch[size].estimate for size in (1, 4, 16, 64)}
    monotone = all(rates[a] >= rates[b] for a, b in ((1, 4), (4, 16), (16, 64)))
    gap = rates[1] - rates[64]
    return CriterionResult(
        name="bruteforce-degradation",
        measured=gap,
        bound=0.05,
        passed=monotone and gap >= 0.05,
        note=f"rates {rates}; non-increasing={monotone}, lucky-vs-full gap {gap:.3f}>=0.05",
    )


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------


def run_battery(
    seed: int = 0, trials: int = 10000, timings: dict[str, float] | None = None
) -> list[CriterionResult]:
    """Criteria 1-13, in order, sharing the Monte Carlo runs.

    A ``timings`` dict receives the wall time in seconds of each
    criterion, under its name, and of the shared game runs, under
    ``zoo-games`` and ``keysearch-games``.  The results do not depend on it.
    """
    clock = {} if timings is None else timings

    def timed(label, criterion, *args):
        start = time.perf_counter()
        out = criterion(*args)
        clock[label or out.name] = time.perf_counter() - start
        return out

    zoo = timed("zoo-games", _zoo_reports, seed, trials)
    keysearch = timed("keysearch-games", _keysearch_reports, seed, trials)
    seeded = (
        c01_qas_correctness,
        c02_wrong_key_bound,
        c03_design_certificate,
        c04_pairwise_independence,
        c05_eps_uniform,
        c06_protection_correctness,
        c07_trace_distance_orthogonal,
        c08_reusability,
        c09_mix_correctness,
        c10_baselines,
    )
    return [timed(None, criterion, seed) for criterion in seeded] + [
        timed(None, c11_harness_vs_oracles, zoo),
        timed(None, c12_security_sanity, zoo, keysearch),
        timed(None, c13_bruteforce_degradation, keysearch),
    ]


def battery_json(results: list[CriterionResult]) -> str:
    return json.dumps([r.to_json_dict() for r in results], indent=2)


def run_suite(
    seed: int = 0, trials: int = 10000, timings: dict[str, float] | None = None
) -> list[CriterionResult]:
    """The full battery plus the determinism criterion, which re-runs the
    battery with the same seed and byte-compares the serialized results.
    ``timings`` is filled as by :func:`run_battery`, with the re-run's
    time under ``determinism``."""
    results = run_battery(seed, trials, timings)
    first = battery_json(results)
    start = time.perf_counter()
    second = battery_json(run_battery(seed, trials))
    if timings is not None:
        timings["determinism"] = time.perf_counter() - start
    identical = first == second
    results.append(
        CriterionResult(
            name="determinism",
            measured=1.0 if identical else 0.0,
            bound=1.0,
            passed=identical,
            note="two same-seed battery runs serialize byte-identically",
        )
    )
    return results
