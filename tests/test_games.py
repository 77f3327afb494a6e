"""Tests for the game harnesses, baselines and the adversary zoo."""

import json
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlease import copyprotect as cp
from qlease import designs, games, qas, qmath
from qlease.games import (
    FixedAnswer,
    HonestEvalStrategy,
    KeyChain,
    KeysearchPirate,
    PirateMap,
    append_csv,
    default_cp_spec,
    exact_win,
    give_to_charlie,
    honest_return,
    keep_program,
    keysearch_adversary,
    leasing_spec,
    oracle_give_to_charlie,
    oracle_honest_return,
    oracle_keep_program,
    oracle_trivial_forward,
    p_ind,
    p_marg,
    run_experiment_free,
    run_experiment_ssl,
    trivial_forward,
    wilson_interval,
)
from qlease.leasing import SslScheme, ssl_verify
from qlease.qmath import (
    ATOL,
    DensityOperator,
    DimensionMismatchError,
    KrausChannel,
    PureState,
    apply_channel,
    maximally_mixed,
    measure_projective,
    spawn_rng,
    spawn_rngs,
    zero_state,
)

from measurement_reference import collapse, run_chain

TRIALS = 4000


@pytest.fixture(scope="module")
def scheme():
    return qas.build_scheme(1, 1, 6)


@pytest.fixture(scope="module")
def spec(scheme):
    return default_cp_spec(scheme)


@pytest.fixture(scope="module")
def ssl(scheme):
    return SslScheme(scheme)


# ---------------------------------------------------------------------------
# Wilson intervals
# ---------------------------------------------------------------------------


def test_wilson_edge_cases():
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0


def test_wilson_symmetric_at_half():
    lo, hi = wilson_interval(50, 100, 0.99)
    assert lo < 0.5 < hi
    assert abs((0.5 - lo) - (hi - 0.5)) < 1e-12
    # closed-form oracle
    z = NormalDist().inv_cdf(0.995)
    denom = 1 + z * z / 100
    expect_half = z * np.sqrt(0.25 / 100 + z * z / 40000) / denom
    assert abs((hi - lo) / 2 - expect_half) < 1e-12


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(7, 5)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_p_marg_uniform_dhalf_is_exactly_half(spec):
    value = p_marg(spec.circuit_dist, spec.charlie_family)
    assert value == Fraction(1, 2)


def test_p_marg_known_circuit_is_one():
    # a point-mass circuit distribution lets Charlie answer perfectly
    value = p_marg(cp.ChallengeDistribution(3, 2, 1.0), cp.PointFamily(3, 0.5))
    assert value == 1


def test_p_marg_uniform_challenges_l2():
    # exhaustive enumeration: max(Pr[P=0], Pr[P=1]) = 3/4 per challenge;
    # mass 1/4 on the point of 4 strings is the uniform distribution
    value = p_marg(cp.ChallengeDistribution(2), cp.PointFamily(2, 0.25))
    assert value == Fraction(3, 4)


def test_p_ind_matches_p_marg_on_shared_shape(spec):
    assert p_ind(spec.circuit_dist, spec.charlie_family) == Fraction(1, 2)
    assert p_ind(cp.ChallengeDistribution(2), cp.PointFamily(2, 0.25)) == Fraction(3, 4)


def _exact_weight(dist, x) -> Fraction:
    """The exact weight of ``x`` read from :meth:`exact_shape`."""
    flat, peak, top = dist.exact_shape()
    return top if x == peak else flat


def _enumerated_best_guess(circuit_dist, family) -> Fraction:
    """Oracle: the 4^k enumeration over (point, challenge) pairs."""
    size = circuit_dist.size
    tables = [family(p) for p in range(size)]
    total = Fraction(0)
    for x in range(size):
        w1 = Fraction(0)
        w0 = Fraction(0)
        for p in range(size):
            w = _exact_weight(circuit_dist, p) * _exact_weight(tables[p], x)
            if p == x:
                w1 += w
            else:
                w0 += w
        total += max(w1, w0)
    return total


@pytest.mark.parametrize("bits", [1, 2, 3, 5])
def test_best_guess_rate_matches_enumeration(bits):
    n = 1 << bits
    circuits = [
        cp.ChallengeDistribution(bits),
        cp.ChallengeDistribution(bits, 0, 0.5),
        cp.ChallengeDistribution(bits, n - 1, 0.5),
        cp.ChallengeDistribution(bits, 0, 0.75),
        cp.ChallengeDistribution(bits, 0, 1.0),
    ]
    for circuit in circuits:
        for r in (0.0, 0.125, 0.5, 0.75, 1.0, 2.0**-bits):
            family = cp.PointFamily(bits, r)
            value = p_marg(circuit, family)
            assert isinstance(value, Fraction), r
            assert value == _enumerated_best_guess(circuit, family), r


def test_best_guess_rate_keeps_no_tables():
    # at k = 16 one table of 2^16 floats takes 512 KiB, and one exact
    # weight per challenge about 20 MiB; the shapes need a few KiB
    tracemalloc.start()
    try:
        value = p_marg(cp.ChallengeDistribution(16), cp.PointFamily(16, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == Fraction(1, 2)
    assert peak < 64 * 2**10


def test_best_guess_rate_builds_no_distribution(monkeypatch):
    # the closed form reads the family's weights, not one distribution per point
    circuit, family = cp.ChallengeDistribution(20), cp.PointFamily(20, 0.5)
    built = []
    check = cp.ChallengeDistribution.__post_init__
    monkeypatch.setattr(cp.ChallengeDistribution, "__post_init__", lambda self: built.append(check(self)))
    assert p_marg(circuit, family) == Fraction(1, 2)
    assert p_ind(circuit, family) == Fraction(1, 2)
    assert built == []
    family(3)  # the count sees a build
    assert len(built) == 1


@pytest.mark.parametrize("split", [trivial_forward, give_to_charlie])
def test_game_trials_build_no_distribution_or_point_function(monkeypatch, split):
    # a trial draws its challenges from the spec's families at the point and
    # compares them with the point: no per-point object is built or validated
    scheme = qas.build_scheme(1, 1, 20)
    spec = default_cp_spec(scheme)
    built = []
    for cls in (cp.ChallengeDistribution, cp.PointFunction):
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=cls.__post_init__: built.append(check(self)))
    assert run_experiment_free(spec, *split(scheme), 600, seed=1).wins > 0
    assert built == []
    cp.PointFunction(3, 20), spec.bob_family(3)  # the count sees a build
    assert len(built) == 2


def test_baselines_reject_tables_and_plain_callables():
    # a probability vector, such as leasing.pushforward returns, is no family
    table = np.array([0.4, 0.3, 0.2, 0.1])
    for baseline in (p_marg, p_ind):
        with pytest.raises(ValueError, match="PointFamily"):
            baseline(cp.ChallengeDistribution(2), table)
        with pytest.raises(ValueError, match="PointFamily"):
            baseline(cp.ChallengeDistribution(2), lambda p: cp.ChallengeDistribution(2, p, 0.5))
        with pytest.raises(ValueError, match="PointFamily"):
            baseline(cp.ChallengeDistribution(2), cp.PointFamily(3, 0.5))


class _NoSplit:
    """A pirate whose split fails the test: no trial may start."""

    name = "no-split"

    def split(self, program_state, point, rng):
        raise AssertionError("a trial ran before the baseline was checked")


def test_bad_baseline_inputs_fail_before_any_trial(scheme, ssl):
    # the spec itself refuses, so no game can start from it
    with pytest.raises(ValueError, match="PointFamily"):
        games.GameSpec(scheme, cp.ChallengeDistribution(6), cp.PointFamily(6, 0.5), lambda p: cp.ChallengeDistribution(6, p, 0.5))
    with pytest.raises(ValueError, match="PointFamily"):
        run_experiment_ssl(
            ssl, cp.ChallengeDistribution(6), lambda p: cp.ChallengeDistribution(6, p, 0.5), _NoSplit(), FixedAnswer(0), 10, seed=1
        )


@pytest.mark.parametrize("bits", [4, 8])
def test_game_distributions_must_match_the_key_length(scheme, ssl, bits):
    # unchecked, 4-bit draws on a 6-bit scheme run a whole game at the
    # wrong odds, and 8-bit ones fail mid-run with "input outside the domain"
    with pytest.raises(DimensionMismatchError):
        run_experiment_ssl(ssl, cp.ChallengeDistribution(bits), cp.PointFamily(bits, 0.5), _NoSplit(), FixedAnswer(0), 10, 1)
    for parts in (
        (cp.ChallengeDistribution(bits), cp.PointFamily(6, 0.5), cp.PointFamily(6, 0.5)),
        (cp.ChallengeDistribution(6), cp.PointFamily(bits, 0.5), cp.PointFamily(6, 0.5)),
        (cp.ChallengeDistribution(6), cp.PointFamily(6, 0.5), cp.PointFamily(bits, 0.5)),
    ):
        with pytest.raises(DimensionMismatchError):
            games.GameSpec(scheme, *parts)


# ---------------------------------------------------------------------------
# adversary plumbing
# ---------------------------------------------------------------------------


def test_trivial_forward_split_is_program_then_zero(scheme):
    psi = cp.protect(scheme, 5).state
    bob, charlie, side = trivial_forward(scheme)[0].split(psi, 5, None)
    assert bob is psi
    assert isinstance(charlie, PureState)
    assert np.array_equal(charlie.amplitudes, [1, 0])
    assert side is None


def _joint(a, b):
    """One register holding two, ``a``'s qubits first: their ``np.kron``."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    da, db = (s.density() if isinstance(s, PureState) else s for s in (a, b))
    return DensityOperator(np.kron(da.matrix, db.matrix))


def _mix_and_keep_reference(scheme, psi) -> np.ndarray:
    """The channel rho -> (I/d) (x) rho as Kraus operators, halves then
    swapped so the program comes first: program (x) I/d."""
    d = scheme.total_dim
    ops = [np.kron(np.eye(d)[:, [i]], np.eye(d)) / np.sqrt(d) for i in range(d)]
    out = apply_channel(KrausChannel(tuple(ops)), psi.density()).matrix
    return out.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


@pytest.mark.parametrize("params", [(1, 1, 6), (2, 1, 6)])
def test_give_to_charlie_split_matches_kraus_channel(params):
    scheme = qas.build_scheme(*params)
    psi = cp.protect(scheme, 9).state
    bob, charlie, side = give_to_charlie(scheme)[0].split(psi, 9, None)
    assert charlie is psi  # the kept program
    assert isinstance(bob, DensityOperator) and bob.qubits == scheme.total_qubits
    joint = _joint(charlie, bob)
    assert np.max(np.abs(joint.matrix - _mix_and_keep_reference(scheme, psi))) <= ATOL
    assert side is None


def _joint_register_wins(spec, pirate, charlie, trials, seed) -> int:
    """The trial loop on one joint register, as the harness once ran it:
    the two parties' registers tensored, each party's measurement lifted
    onto its qubits (``V†`` tensored with the identity on the other
    party's) and applied to the joint state, Charlie measuring what Bob's
    measurement left."""
    scheme = spec.scheme
    wins = 0
    for i in range(trials):
        rng = spawn_rng(seed, i)
        p = spec.circuit_dist.sample(rng)
        pf = cp.PointFunction(p, scheme.key_bits)
        bob, charlie_state, side = pirate.split(cp.protect(scheme, p).state, p, rng)
        x1, x2 = spec.bob_family(p).sample(rng), spec.charlie_family(p).sample(rng)
        joint = bob if charlie_state is None else _joint(bob, charlie_state)
        n, total = bob.qubits, joint.qubits
        bob_accept = np.kron(qas.adjoint_isometry(scheme, x1), np.eye(1 << (total - n)))
        b1 = measure_projective(joint, bob_accept, rng)
        post = collapse(joint, bob_accept, b1)
        if type(charlie) is HonestEvalStrategy:
            b2 = measure_projective(post, np.kron(np.eye(1 << n), qas.adjoint_isometry(scheme, x2)), rng)
        else:
            b2 = charlie.answer(None, x2, side, rng)
        wins += b1 == pf(x1) and b2 == pf(x2)
    return wins


@pytest.mark.parametrize("params", [(1, 1, 6), (2, 1, 6)])
@pytest.mark.parametrize("seed", [3, 17])
def test_party_registers_match_joint_register(params, seed):
    # measuring each party on its own register wins exactly the trials
    # that measuring the lifted pairs on the joint register wins
    scheme = qas.build_scheme(*params)
    spec = default_cp_spec(scheme)
    ssl = SslScheme(scheme, 0.75)
    leasing = leasing_spec(ssl, spec.circuit_dist, spec.charlie_family)
    trials = 150
    for adversary in (trivial_forward, give_to_charlie):
        rep = run_experiment_free(spec, *adversary(scheme), trials, seed)
        assert rep.wins == _joint_register_wins(spec, *adversary(scheme), trials, seed)
    for adversary in (honest_return, keep_program):
        rep = run_experiment_ssl(
            ssl, spec.circuit_dist, spec.charlie_family, *adversary(ssl), trials, seed
        )
        assert rep.wins == _joint_register_wins(leasing, *adversary(ssl), trials, seed)


@pytest.mark.parametrize("game,adversary", [("cp", give_to_charlie), ("ssl", keep_program)])
def test_six_qubit_game_memory_is_bounded(game, adversary):
    # 3,3,6: each party's register is 64 x 64; a joint of the two would be
    # 4096 x 4096 complex, 256 MiB
    scheme = qas.build_scheme(3, 3, 6)
    spec = default_cp_spec(scheme)
    ssl = SslScheme(scheme)
    tracemalloc.start()
    try:
        if game == "cp":
            rep = run_experiment_free(spec, *adversary(scheme), 20, seed=5)
        else:
            rep = run_experiment_ssl(
                ssl, spec.circuit_dist, spec.charlie_family, *adversary(ssl), 20, seed=5
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.trials == 20
    assert peak < 64 << 20


def _scalar_trial_wins(spec, pirate, charlie, trials, seed) -> list[bool]:
    """The trial loop measuring in turn, one trial at a time, as the harness
    ran before it decided a block's outcomes and ran a block's key
    searches at once: whether each trial is won."""
    scheme = spec.scheme
    won = []
    for rng in spawn_rngs(seed, trials):
        p = spec.circuit_dist.sample(rng)
        pf = cp.PointFunction(p, scheme.key_bits)
        bob, charlie_state, side = pirate.split(cp.protect(scheme, p).state, p, rng)
        if isinstance(bob, KeyChain):
            bob, side = run_chain(scheme, bob, rng)
        x1, x2 = spec.bob_family(p).sample(rng), spec.charlie_family(p).sample(rng)
        b1 = measure_projective(bob, qas.adjoint_isometry(scheme, x1), rng)
        if type(charlie) is HonestEvalStrategy:
            b2 = measure_projective(charlie_state, qas.adjoint_isometry(scheme, x2), rng)
        else:
            b2 = charlie.answer(charlie_state, x2, side, rng)
        won.append(b1 == pf(x1) and b2 == pf(x2))
    return won


class _SometimesOwnKey(HonestEvalStrategy):
    """Evaluates honestly on his own scheme, half the time at a key of his
    own drawing: a Charlie who draws from his generator before and in his
    measurement, and who answers through his own ``answer``."""

    def __init__(self, scheme):
        self.scheme = scheme

    def answer(self, state, x, side, rng) -> int:
        key = x if rng.random() < 0.5 else int(rng.integers(1 << self.scheme.key_bits))
        return measure_projective(state, qas.adjoint_isometry(self.scheme, key), rng)


class _AlwaysOne(FixedAnswer):
    """Built with a bit, but answers 1 through his own ``answer``."""

    def answer(self, state, x, side, rng) -> int:
        return 1


def _every_adversary(scheme):
    ssl = SslScheme(scheme, 0.75)
    spec = default_cp_spec(scheme)
    leasing = leasing_spec(ssl, spec.circuit_dist, spec.charlie_family)
    yield spec, trivial_forward(scheme)
    yield spec, give_to_charlie(scheme)
    yield spec, (give_to_charlie(scheme)[0], _SometimesOwnKey(scheme))
    yield spec, (trivial_forward(scheme)[0], _AlwaysOne(0))
    yield leasing, honest_return(ssl)
    yield leasing, keep_program(ssl)
    for budget in (1, 4, 16, 64):
        yield spec, keysearch_adversary(scheme, budget)


@pytest.mark.parametrize("params", [(1, 1, 6), (2, 1, 6), (3, 3, 6)], ids=str)
def test_blocks_win_the_trials_of_the_scalar_loop(params):
    # every zoo split, keysearch budget, a Charlie who draws and a fixed
    # Charlie who answers another bit than his class's, at trial counts
    # within, at and across the block edges: the wins of measuring in turn
    # (trial i's generator does not depend on the trial count)
    scheme = qas.build_scheme(*params)
    block = qmath.SPAWN_BLOCK
    for spec, adversary in _every_adversary(scheme):
        won = _scalar_trial_wins(spec, *adversary, 600, seed=62)
        for trials in (1, block - 1, block, block + 1, 600):
            assert games._play(spec, *adversary, trials, seed=62) == sum(won[:trials]), (
                adversary[0].name, type(adversary[1]).__name__, trials
            )


def test_game_memory_is_one_block():
    # after a warm-up run, four times the trials take no more memory: each
    # block's registers and stacked weights go before the next block starts
    scheme = qas.build_scheme(3, 3, 6)
    spec = default_cp_spec(scheme)
    block = qmath.SPAWN_BLOCK
    run_experiment_free(spec, *give_to_charlie(scheme), 2 * block, seed=63)
    peaks = []
    for trials in (2 * block, 8 * block):
        tracemalloc.start()
        try:
            run_experiment_free(spec, *give_to_charlie(scheme), trials, seed=63)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[1] < 4 << 20


# ---------------------------------------------------------------------------
# exact win rates
# ---------------------------------------------------------------------------


def _mean_correctness(scheme, circuit_dist, family) -> float:
    """E over the circuit distribution of the exact per-point correctness."""
    return sum(
        circuit_dist.prob(p) * cp.correctness_exact(scheme, p, family)
        for p in range(circuit_dist.size)
    )


def _closed_form_trivial_forward(spec) -> float:
    """Reference: Bob's exact correctness times Charlie's fixed 0 being
    right, which it is when his challenge misses the point."""
    return sum(
        spec.circuit_dist.prob(p)
        * cp.correctness_exact(spec.scheme, p, spec.bob_family)
        * (1.0 - spec.charlie_family(p).prob(p))
        for p in range(spec.circuit_dist.size)
    )


def _closed_form_give_to_charlie(spec) -> float:
    """Reference: honest evaluation of a maximally mixed register accepts
    every key with probability exactly 2^-t, so Bob is right with
    hit * 2^-t + (1 - hit)(1 - 2^-t), hit being his challenge's mass at
    the point; Charlie evaluates the intact program."""
    acc = 2.0 ** (-spec.scheme.trap_qubits)
    total = 0.0
    for p in range(spec.circuit_dist.size):
        hit = spec.bob_family(p).prob(p)
        bob = hit * acc + (1.0 - hit) * (1.0 - acc)
        total += spec.circuit_dist.prob(p) * bob * cp.correctness_exact(spec.scheme, p, spec.charlie_family)
    return total


@pytest.mark.parametrize("bob_r", [0.5, 0.9])
def test_exact_win_matches_closed_forms(scheme, bob_r):
    spec = default_cp_spec(scheme, bob_r)
    assert abs(exact_win(spec, *trivial_forward(scheme)) - _closed_form_trivial_forward(spec)) <= 1e-15
    assert abs(exact_win(spec, *give_to_charlie(scheme)) - _closed_form_give_to_charlie(spec)) <= 1e-15


@pytest.mark.parametrize("verify_r", [1.0, 0.75])
def test_exact_win_matches_closed_forms_in_leasing(scheme, spec, verify_r):
    ssl = SslScheme(scheme, verify_r)
    leasing = leasing_spec(ssl, spec.circuit_dist, spec.charlie_family)
    assert abs(exact_win(leasing, *honest_return(ssl)) - _closed_form_trivial_forward(leasing)) <= 1e-15
    assert abs(exact_win(leasing, *keep_program(ssl)) - _closed_form_give_to_charlie(leasing)) <= 1e-15


@pytest.mark.parametrize("game", ["cp", "ssl"])
def test_return_garbage_matches_exact_win(scheme, spec, ssl, game):
    # no closed form covers this split: Bob gets |0...0>, Charlie the program
    pirate = PirateMap(zero_state(scheme.total_qubits), keep=True, name="return-garbage")
    charlie = HonestEvalStrategy()
    if game == "cp":
        rep = run_experiment_free(spec, pirate, charlie, TRIALS, seed=62)
        exact = exact_win(spec, pirate, charlie)
    else:
        args = (ssl, spec.circuit_dist, spec.charlie_family)
        rep = run_experiment_ssl(*args, pirate, charlie, TRIALS, seed=63)
        exact = exact_win(leasing_spec(*args), pirate, charlie)
    assert rep.ci_lo <= exact <= rep.ci_hi


def test_exact_win_rejects_random_splits_and_sampled_designs(scheme, spec):
    with pytest.raises(ValueError, match="randomness"):
        exact_win(spec, KeysearchPirate(scheme, 4), FixedAnswer(0))
    with pytest.raises(ValueError):
        exact_win(spec, *keysearch_adversary(scheme, 4))
    with pytest.raises(ValueError, match="PointFamily"):
        games.GameSpec(scheme, spec.circuit_dist, lambda p: cp.ChallengeDistribution(6, p, 0.5), spec.charlie_family)


@pytest.mark.parametrize(
    "pirating,make",
    [(trivial_forward, lambda s: _AlwaysOne(0)), (give_to_charlie, _SometimesOwnKey)],
    ids=["fixed-subclass", "honest-subclass"],
)
def test_exact_win_refuses_a_subclass_of_its_charlies(scheme, pirating, make):
    # the trial loop runs a subclass's own answer, so the value of its
    # class is not its win rate: _AlwaysOne(0) once got fixed-0's 0.1679,
    # where its trials read 0.507 and fixed-1's exact value is 0.5038
    spec = games.GameSpec(scheme, cp.ChallengeDistribution(6), cp.PointFamily(6, 0.5), cp.PointFamily(6, 0.75))
    with pytest.raises(ValueError, match="exactly"):
        exact_win(spec, pirating(scheme)[0], make(scheme))


def test_exact_win_reads_a_fixed_bit_once(scheme, spec, monkeypatch):
    # a fixed answer's factor is the same at every one of the 64 indices
    calls = []
    rule = games.correctness_from_answers
    monkeypatch.setattr(games, "correctness_from_answers", lambda *args: calls.append(args) or rule(*args))
    value = exact_win(spec, *trivial_forward(scheme))
    assert len(calls) == 1
    assert abs(value - _closed_form_trivial_forward(spec)) <= 1e-15


@pytest.mark.parametrize("other", [(1, 1, 7), (1, 1, 5), (1, 2, 6)], ids=str)
def test_a_key_search_on_another_scheme_is_refused_before_any_split(scheme, spec, ssl, other, monkeypatch):
    # its candidates are keys of its own scheme: on 1,1,7 a run went to
    # the end at 0.4115 (0.4295 on its own scheme), and on 1,1,5 and 1,2,6
    # it failed mid-run
    def refuse(*args):
        raise AssertionError("a split ran before the key search's scheme was checked")

    monkeypatch.setattr(KeysearchPirate, "split", refuse)
    adversary = keysearch_adversary(qas.build_scheme(*other), 4)
    with pytest.raises(ValueError, match="game's scheme"):
        run_experiment_free(spec, *adversary, 10, seed=1)
    with pytest.raises(ValueError, match="game's scheme"):
        run_experiment_ssl(ssl, spec.circuit_dist, spec.charlie_family, *adversary, 10, seed=1)


def test_a_key_search_runs_on_a_game_built_after_a_design_cache_clear(spec):
    # its scheme and the game's are equal by (m, t, k) though each has its
    # own design, which give the same bits
    before = keysearch_adversary(qas.build_scheme(1, 1, 6), 4)
    designs.clifford_design.cache_clear()
    scheme = qas.build_scheme(1, 1, 6)
    assert before[0].scheme.design is not scheme.design
    after = default_cp_spec(scheme)
    assert after == spec
    fresh = keysearch_adversary(scheme, 4)
    assert run_experiment_free(after, *before, 300, seed=2) == run_experiment_free(spec, *fresh, 300, seed=2)


def _per_point_win(spec, pirate, charlie) -> float:
    """Reference: the per-point sum, with a 2^k answer table per register
    at every point of the circuit distribution, one acceptance per key."""
    scheme = spec.scheme
    keys = range(1 << scheme.key_bits)

    def answer_one(register):
        return np.array([qas.accept_probability(scheme, x, register) for x in keys])

    def correctness(prob_one, p, dist):
        correct = 1.0 - prob_one
        correct[p] = prob_one[p]
        return float(dist.probs @ correct)

    fixed = isinstance(charlie, FixedAnswer)
    total = 0.0
    for p in range(spec.circuit_dist.size):
        bob, held, _ = pirate.split(cp.protect(scheme, p).state, p, None)
        charlie_one = np.full(len(keys), float(charlie.bit)) if fixed else answer_one(held)
        total += (
            spec.circuit_dist.prob(p)
            * correctness(answer_one(bob), p, spec.bob_family(p))
            * correctness(charlie_one, p, spec.charlie_family(p))
        )
    return total


def _fixed_register_adversaries(scheme):
    """The zoo's fixed-register splits, return-garbage and the cloner."""
    garbage = PirateMap(zero_state(scheme.total_qubits), keep=True, name="return-garbage")
    return [
        trivial_forward(scheme),
        give_to_charlie(scheme),
        (garbage, HonestEvalStrategy()),
        cheat_double_program(scheme),
    ]


@pytest.mark.parametrize("shape", [(1, 1, 4), (1, 1, 6), (1, 1, 8), (2, 1, 6)], ids=["4", "6", "8", "2,1,6"])
def test_exact_win_matches_per_point_sum(shape):
    # 2,1,6 reaches 64 elements of the indexed 3-qubit Clifford group
    scheme = qas.build_scheme(*shape)
    spec = default_cp_spec(scheme, 0.75)
    ssl = SslScheme(scheme, 0.9)
    leasing = leasing_spec(ssl, spec.circuit_dist, spec.charlie_family)
    for adversary in _fixed_register_adversaries(scheme):
        assert abs(exact_win(spec, *adversary) - _per_point_win(spec, *adversary)) <= 1e-15
    for adversary in (honest_return(ssl), keep_program(ssl)):
        assert abs(exact_win(leasing, *adversary) - _per_point_win(leasing, *adversary)) <= 1e-15


def test_exact_win_matches_per_point_sum_on_other_circuits(scheme):
    circuits = [cp.ChallengeDistribution(6, 37, 0.3), cp.ChallengeDistribution(6, 5, 0.0), cp.ChallengeDistribution(6, 9, 1.0)]
    for circuit in circuits:
        spec = games.GameSpec(scheme, circuit, cp.PointFamily(6, 0.5), cp.PointFamily(6, 0.75))
        for adversary in _fixed_register_adversaries(scheme):
            assert abs(exact_win(spec, *adversary) - _per_point_win(spec, *adversary)) <= 1e-15, circuit


def test_point_mass_circuit_protects_one_point(monkeypatch):
    # 2^16 points, one of which carries the circuit's whole mass: one
    # design index, so one program
    scheme = qas.build_scheme(1, 1, 16)
    point = 40000
    spec = games.GameSpec(scheme, cp.ChallengeDistribution(16, point, 1.0), cp.PointFamily(16, 0.5), cp.PointFamily(16, 0.5))
    protected = []

    def counted(scheme, p):
        protected.append(p)
        if len(protected) > 10:
            raise AssertionError("exact_win protected more than ten points")
        return cp.protect(scheme, p)

    monkeypatch.setattr(games, "protect", counted)
    value = exact_win(spec, *trivial_forward(scheme))
    assert protected == [scheme.key_index(point)]
    assert abs(value - 0.5 * cp.correctness_exact(scheme, point, spec.bob_family)) < 1e-12


def test_exact_win_peak_memory_stays_small():
    # one d x d key-summed operator per scheme and no per-index vectors:
    # 256 vectors of 11,520 floats would take 22 MiB
    scheme = qas.build_scheme(1, 1, 8)
    tracemalloc.start()
    try:
        exact_win(default_cp_spec(scheme), *give_to_charlie(scheme))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("split", [trivial_forward, give_to_charlie])
def test_exact_win_on_six_qubits_matches_the_trial_loop(split):
    # 3,3,6: 64 elements of the indexed 6-qubit Clifford group
    scheme = qas.build_scheme(3, 3, 6)
    spec = default_cp_spec(scheme)
    rep = run_experiment_free(spec, *split(scheme), 20_000, seed=5)
    assert rep.ci_lo <= exact_win(spec, *split(scheme)) <= rep.ci_hi


@pytest.fixture
def own_clifford_designs():
    # Clifford designs built for this test alone, with empty block caches,
    # whatever earlier tests built
    designs.clifford_design.cache_clear()
    yield
    designs.clifford_design.cache_clear()


def test_key_sum_keeps_only_trap_zero_columns(own_clifford_designs):
    # 2,2,10 reaches 1,024 indices of the 4-qubit design; each keeps its
    # 16 x 4 trap-zero columns (1 KiB), never the 16 x 16 element
    scheme = qas.build_scheme(2, 2, 10)
    qas.avg_wrong_key_accept(scheme, zero_state(4))
    assert scheme.design._cache_bytes == 1_048_576


def test_repeated_schemes_share_built_elements(own_clifford_designs, monkeypatch):
    # 3,3,10 reaches 1,024 six-qubit elements: 64 MiB, the whole budget
    assert qas.build_scheme(3, 3, 10) == qas.build_scheme(3, 3, 10)
    builds = []
    build = designs._clifford_from_tableau

    def counted(*args):
        builds.append(args)
        return build(*args)

    def build_and_win():
        scheme = qas.build_scheme(3, 3, 10)
        return repr(exact_win(default_cp_spec(scheme), *give_to_charlie(scheme)))

    monkeypatch.setattr(designs, "_clifford_from_tableau", counted)
    first = build_and_win()
    assert len(builds) == 1024
    assert build_and_win() == first
    assert len(builds) == 1024


# ---------------------------------------------------------------------------
# CP harness vs oracles
# ---------------------------------------------------------------------------


def test_trivial_forward_matches_oracle(spec, scheme):
    rep = run_experiment_free(spec, *trivial_forward(scheme), TRIALS, seed=41)
    oracle = oracle_trivial_forward(spec)
    assert rep.ci_lo <= oracle <= rep.ci_hi
    assert rep.baseline == 0.5


def test_give_to_charlie_matches_oracle(spec, scheme):
    rep = run_experiment_free(spec, *give_to_charlie(scheme), TRIALS, seed=42)
    oracle = oracle_give_to_charlie(spec)
    assert rep.ci_lo <= oracle <= rep.ci_hi


class _Cloner:
    """Harness-validation double: hands BOTH parties an honest program,
    which no physical pirate can do.  With Bob and Charlie honest the win
    rate is the product of two exact correctness values, which checks the
    plumbing independently of any security claim."""

    name = "cheat-double-program"

    def __init__(self, scheme):
        self.scheme = scheme

    def split(self, program_state, point, rng):
        return program_state, cp.protect(self.scheme, point).state, None


def cheat_double_program(scheme):
    return _Cloner(scheme), HonestEvalStrategy()


def test_cheat_double_program_validates_harness(spec, scheme):
    rep = run_experiment_free(spec, *cheat_double_program(scheme), TRIALS, seed=43)
    oracle = exact_win(spec, *cheat_double_program(scheme))
    assert rep.ci_lo <= oracle <= rep.ci_hi
    # both parties honest on intact programs: the product of two correctness values
    product = sum(
        spec.circuit_dist.prob(p)
        * cp.correctness_exact(scheme, p, spec.bob_family)
        * cp.correctness_exact(scheme, p, spec.charlie_family)
        for p in range(spec.circuit_dist.size)
    )
    assert abs(oracle - product) <= 1e-15


def test_report_determinism(spec, scheme):
    a = run_experiment_free(spec, *trivial_forward(scheme), 400, seed=44)
    b = run_experiment_free(spec, *trivial_forward(scheme), 400, seed=44)
    assert a == b


def test_generalized_bob_marginal(scheme):
    # Bob challenged at the point with probability r = 0.9
    spec9 = default_cp_spec(scheme, bob_r=0.9)
    rep = run_experiment_free(spec9, *trivial_forward(scheme), TRIALS, seed=45)
    oracle = oracle_trivial_forward(spec9)
    assert rep.ci_lo <= oracle <= rep.ci_hi


def test_harness_register_shape_check(spec, scheme, ssl):
    bad = PirateMap(zero_state(1), keep=True, name="bad-split")  # Bob gets one qubit
    with pytest.raises(ValueError):
        run_experiment_free(spec, bad, FixedAnswer(0), 10, seed=47)
    # in the leasing game the returned register is Bob's
    with pytest.raises(ValueError):
        run_experiment_ssl(
            ssl, spec.circuit_dist, spec.charlie_family, bad, FixedAnswer(0), 10, seed=47
        )


def test_zero_trials_rejected(spec, scheme, ssl, monkeypatch):
    # and every count or seed off the rule: a count is a positive int and
    # a seed a non-negative int, neither a bool, checked in both harnesses
    # before the first point is drawn
    def refuse(*args):
        raise AssertionError("drawn before the check")

    monkeypatch.setattr(games, "spawn_rngs", refuse)
    for trials, seed in [(0, 48), (True, 48), (2.0, 48), (10, True), (10, 1.5), (10, -1)]:
        with pytest.raises(ValueError, match="trials|seed"):
            run_experiment_free(spec, *trivial_forward(scheme), trials, seed=seed)
        with pytest.raises(ValueError, match="trials|seed"):
            run_experiment_ssl(ssl, spec.circuit_dist, spec.charlie_family, *honest_return(ssl), trials, seed=seed)


# ---------------------------------------------------------------------------
# keysearch
# ---------------------------------------------------------------------------


def test_keysearch_lucky_guess_is_envelope(spec, scheme):
    # budget of exactly the true point: no damage, Charlie perfect, so the
    # win rate is Bob's mean correctness
    rep = run_experiment_free(
        spec, *keysearch_adversary(scheme, budget_size=1), TRIALS, seed=49
    )
    envelope = _mean_correctness(scheme, spec.circuit_dist, spec.bob_family)
    assert rep.ci_lo <= envelope <= rep.ci_hi


def test_keysearch_damage_reduces_wins(spec, scheme):
    lucky = run_experiment_free(
        spec, *keysearch_adversary(scheme, budget_size=1), TRIALS, seed=51
    )
    full = run_experiment_free(
        spec, *keysearch_adversary(scheme, budget_size=64), TRIALS, seed=52
    )
    assert full.estimate < lucky.estimate - 0.05


def _candidates_by_delete(pirate, point, rng) -> list[int]:
    """Keysearch's candidate list as ``np.delete`` of the point builds it."""
    others = np.delete(np.arange(1 << pirate.scheme.key_bits), point)
    rng.shuffle(others)
    keys = [int(k) for k in others[: pirate.budget_size - 1]]
    keys.insert(int(rng.integers(pirate.budget_size)), point)
    return keys


@pytest.mark.parametrize("point", [0, 32, 63])
@pytest.mark.parametrize("budget", [1, 4, 64])
def test_keysearch_candidates_match_delete(scheme, point, budget):
    pirate = KeysearchPirate(scheme, budget)
    for seed in range(5):
        ours, theirs = spawn_rng(53, seed), spawn_rng(53, seed)
        keys = pirate._candidates(point, ours)
        assert keys == _candidates_by_delete(pirate, point, theirs)
        assert all(type(k) is int for k in keys)
        assert ours.random() == theirs.random()


def _lockstep_against_reference(scheme, budget, trials, seed):
    """Run ``trials`` key searches of ``budget`` candidates in lock-step
    and one at a time (:func:`run_chain`), each trial on two copies of its
    generator: the same post-state bits, keys found and next draws.
    Returns the steps at which the searches ended (``budget`` if none
    accepted)."""
    pirate = KeysearchPirate(scheme, budget)
    circuit = cp.ChallengeDistribution(scheme.key_bits)
    ours, theirs = list(spawn_rngs(seed, trials)), list(spawn_rngs(seed, trials))
    chains, expected = [], []
    for mine, ref in zip(ours, theirs):
        p = circuit.sample(mine)
        assert circuit.sample(ref) == p
        program = cp.protect(scheme, p).state
        chains.append(pirate.split(program, p, mine)[0])
        expected.append(run_chain(scheme, pirate.split(program, p, ref)[0], ref))
    posts, found = games._search(scheme, chains, ours)
    assert posts.shape == (trials, scheme.total_dim)
    for i, (post, key) in enumerate(expected):
        assert np.array_equal(posts[i], post.amplitudes), i
        assert found[i] == key and type(found[i]) is type(key), i
        assert ours[i].random() == theirs[i].random(), i
    return {budget if key is None else chain.keys.index(key) for chain, key in zip(chains, found)}


@pytest.mark.parametrize("params", [(1, 1, 6), (2, 1, 6), (3, 3, 6)], ids=str)
@pytest.mark.parametrize("budget", [1, 4, 16, 64])
def test_lockstep_search_is_the_per_trial_chain(params, budget):
    # stacks of 1 to 600 searches, below, above and past two of the game's
    # 256-trial blocks, whose chains end at different steps; budget 64 is
    # the whole key space
    scheme = qas.build_scheme(*params)
    ends = set()
    for trials in (1, 255, 257, 600):
        ends |= _lockstep_against_reference(scheme, budget, trials, seed=64 + trials)
    assert len(ends) > 1 or budget == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(1, 300))
def test_lockstep_search_property(seed, budget, trials):
    _lockstep_against_reference(qas.build_scheme(1, 1, 6), budget, trials, seed)


@pytest.mark.parametrize("keys", [16, 100, 1 << 16])
def test_search_blocks_do_not_change_wins(spec, scheme, monkeypatch, keys):
    # blocks of 1, 6 and 256 trials at budget 16: the same wins
    expected = games._play(spec, *keysearch_adversary(scheme, 16), 300, seed=65)
    monkeypatch.setattr(games, "SEARCH_KEYS", keys)
    assert games._play(spec, *keysearch_adversary(scheme, 16), 300, seed=65) == expected


def test_run_memory_is_one_block_of_programs():
    # a run keeps the programs of at most one block's points, so eight
    # times the trials, most at a point not met before, take no more memory
    scheme = qas.build_scheme(1, 1, 14)
    spec = default_cp_spec(scheme)
    adversary = trivial_forward(scheme)
    run_experiment_free(spec, *adversary, 300, seed=67)
    peaks = []
    for trials in (2048, 16_384):
        tracemalloc.start()
        try:
            run_experiment_free(spec, *adversary, trials, seed=67)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1 << 20


def test_search_memory_is_one_block_of_candidates():
    # at a full 2^14-key budget a block holds four trials' candidates, so
    # four times the trials take no more memory
    scheme = qas.build_scheme(1, 1, 14)
    spec = default_cp_spec(scheme)
    adversary = keysearch_adversary(scheme, 1 << 14)
    run_experiment_free(spec, *adversary, 4, seed=66)
    peaks = []
    for trials in (8, 32):
        tracemalloc.start()
        try:
            run_experiment_free(spec, *adversary, trials, seed=66)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_keysearch_refuses_an_honest_charlie(spec, scheme):
    with pytest.raises(ValueError, match="honest Charlie"):
        run_experiment_free(spec, KeysearchPirate(scheme, 4), HonestEvalStrategy(), 10, seed=1)


def test_keysearch_budget_validation(scheme):
    with pytest.raises(ValueError):
        keysearch_adversary(scheme, budget_size=0)
    with pytest.raises(ValueError):
        keysearch_adversary(scheme, budget_size=65)
    # a count follows is_positive_int: True was once budget 1, "keysearch-True"
    for budget in (True, 2.0):
        with pytest.raises(ValueError):
            KeysearchPirate(scheme, budget)


# ---------------------------------------------------------------------------
# SSL harness vs oracles
# ---------------------------------------------------------------------------


def test_honest_return_matches_oracle(ssl, spec):
    rep = run_experiment_ssl(
        ssl, spec.circuit_dist, spec.charlie_family, *honest_return(ssl), TRIALS, seed=53
    )
    oracle = oracle_honest_return(ssl, spec.circuit_dist, spec.charlie_family)
    assert rep.ci_lo <= oracle <= rep.ci_hi
    assert abs(oracle - 0.5) < 1e-12  # verification at the point always passes


def test_keep_program_matches_oracle(ssl, spec):
    rep = run_experiment_ssl(
        ssl, spec.circuit_dist, spec.charlie_family, *keep_program(ssl), TRIALS, seed=54
    )
    oracle = oracle_keep_program(ssl, spec.circuit_dist, spec.charlie_family)
    assert rep.ci_lo <= oracle <= rep.ci_hi


def _same_value(a, b) -> bool:
    if isinstance(a, PureState):
        return type(b) is PureState and np.array_equal(a.amplitudes, b.amplitudes)
    if isinstance(a, DensityOperator):
        return type(b) is DensityOperator and np.array_equal(a.matrix, b.matrix)
    return a == b


@pytest.mark.parametrize(
    "leasing,pirating,name",
    [(honest_return, trivial_forward, "honest-return"), (keep_program, give_to_charlie, "keep-program")],
)
def test_leasing_adversaries_are_pirating_ones_renamed(ssl, scheme, leasing, pirating, name):
    adv, strategy = leasing(ssl)
    pirate, pirate_strategy = pirating(scheme)
    assert adv.name == name
    for f in fields(PirateMap):
        if f.name != "name":
            assert _same_value(getattr(adv, f.name), getattr(pirate, f.name)), f.name
    assert type(strategy) is type(pirate_strategy)
    assert vars(strategy).keys() == vars(pirate_strategy).keys()
    assert strategy.name == pirate_strategy.name


@pytest.mark.parametrize("verify_r", [1.0, 0.75])
def test_leasing_oracles_are_pirating_oracles(scheme, spec, verify_r):
    ssl = SslScheme(scheme, verify_r)
    args = (ssl, spec.circuit_dist, spec.charlie_family)
    leasing = leasing_spec(*args)
    assert oracle_honest_return(*args) == oracle_trivial_forward(leasing)
    assert oracle_keep_program(*args) == oracle_give_to_charlie(leasing)


@pytest.mark.parametrize("verify_r", [1.0, 0.75])
@pytest.mark.parametrize("adversary", [honest_return, keep_program])
def test_leasing_harness_is_pirating_harness(scheme, spec, adversary, verify_r):
    # one trial loop: the leasing game is the pirating game on leasing_spec
    ssl = SslScheme(scheme, verify_r)
    args = (ssl, spec.circuit_dist, spec.charlie_family)
    leased = run_experiment_ssl(*args, *adversary(ssl), 300, seed=61)
    pirated = run_experiment_free(leasing_spec(*args), *adversary(ssl), 300, seed=61)
    assert leased.wins == pirated.wins


def test_ssl_abort_counts_as_loss(ssl, spec, scheme):
    # an adversary that returns garbage fails verification and never wins,
    # even though his kept program would answer perfectly
    # returns a fresh ancilla, keeps the program
    swap_in_garbage = PirateMap(zero_state(scheme.total_qubits), keep=True, name="return-garbage")
    rep = run_experiment_ssl(
        ssl,
        spec.circuit_dist,
        spec.charlie_family,
        swap_in_garbage,
        HonestEvalStrategy(),
        2000,
        seed=55,
    )
    # |00> is accepted under key x only at its overlap; wins are gated by
    # the verification, so the rate sits well below the kept-program
    # correctness alone
    kept_alone = _mean_correctness(scheme, spec.circuit_dist, spec.charlie_family)
    assert rep.estimate < kept_alone - 0.1


def test_sampled_bits_build_no_post_state(monkeypatch, scheme, spec, ssl):
    # a trial keeps only the two answer bits, and a destructive evaluation
    # only its bit: with the post-state builders refused where they are
    # imported (games runs its key searches on collapse_pure, copyprotect
    # calls measure_and_collapse), the four zoo games, evaluate (of a
    # plain and a mixed program) and ssl_verify still run, while the
    # callers that keep the register (keysearch's chains,
    # evaluate_preserving) stop
    def refuse(*args):
        raise AssertionError("a post-state was built")

    monkeypatch.setattr(games, "collapse_pure", refuse)
    monkeypatch.setattr(cp, "measure_and_collapse", refuse)
    for adversary in (trivial_forward, give_to_charlie):
        run_experiment_free(spec, *adversary(scheme), 200, seed=8)
    for adversary in (honest_return, keep_program):
        run_experiment_ssl(ssl, spec.circuit_dist, spec.charlie_family, *adversary(ssl), 200, seed=8)
    rng = spawn_rng(9)
    assert cp.evaluate(cp.protect(scheme, 3), 3, rng) == 1
    assert cp.evaluate(cp.mix_protect(scheme, 3, rng), 3, rng) == 1
    pf = cp.PointFunction(3, scheme.key_bits)
    assert ssl_verify(ssl, pf, cp.protect(scheme, 3).state, rng) == 1
    assert ssl_verify(ssl, pf, maximally_mixed(scheme.total_qubits), rng) in (0, 1)
    with pytest.raises(AssertionError, match="post-state"):
        cp.evaluate_preserving(cp.protect(scheme, 3), 3, rng)
    with pytest.raises(AssertionError, match="post-state"):
        run_experiment_free(spec, *keysearch_adversary(scheme, 4), 10, seed=8)


def test_ssl_report_fields(ssl, spec):
    rep = run_experiment_ssl(
        ssl, spec.circuit_dist, spec.charlie_family, *honest_return(ssl), 300, seed=56
    )
    assert rep.game == "ssl"
    assert rep.baseline == 0.5
    assert rep.bound == pytest.approx(0.5 + ssl.base.epsilon)
    assert rep.params["verify_r"] == 1.0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_json_serializable(spec, scheme):
    rep = run_experiment_free(spec, *trivial_forward(scheme), 300, seed=57)
    payload = json.dumps(rep.to_json_dict())
    back = json.loads(payload)
    assert back["game"] == "free"
    assert back["trials"] == 300
    assert back["schema_version"] == games.CSV_SCHEMA_VERSION


def test_csv_append(tmp_path, spec, scheme):
    rep = run_experiment_free(spec, *trivial_forward(scheme), 300, seed=58)
    path = tmp_path / "results.csv"
    append_csv(rep, path)
    append_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["schema_version", "game", "scheme"]
    assert len(lines) == 3  # one header + two rows
    assert lines[1] == lines[2]


def test_csv_append_writes_the_header_to_an_empty_file(tmp_path, spec, scheme):
    # it once wrote the header only when the file was missing
    rep = run_experiment_free(spec, *trivial_forward(scheme), 30, seed=58)
    path = tmp_path / "results.csv"
    path.touch()
    append_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(games.CSV_HEADER)
    assert len(lines) == 2


def test_security_bounds_loose_but_respected(spec, scheme, ssl):
    # sanity only: a finite zoo cannot certify the theorem
    rep = run_experiment_free(spec, *trivial_forward(scheme), 600, seed=59)
    assert rep.estimate <= rep.bound + (rep.ci_hi - rep.estimate)
    rep2 = run_experiment_ssl(
        ssl, spec.circuit_dist, spec.charlie_family, *honest_return(ssl), 600, seed=60
    )
    assert rep2.estimate <= rep2.bound + (rep2.ci_hi - rep2.estimate)
