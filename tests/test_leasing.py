"""Tests for leasing: point functions, compute-and-compare lift,
verification and degradation under repeated evaluation."""

import dataclasses

import numpy as np
import pytest

from qlease import copyprotect as cp
from qlease import qas
from qlease.leasing import (
    CompareFunction,
    SslScheme,
    cc_lease,
    cc_verify,
    epsilon_f,
    pushforward,
    ssl_lease,
    ssl_verify,
    verify_distribution,
)
from qlease.copyprotect import PointFunction, evaluate, evaluate_preserving
from qlease.designs import PairwisePermFamily
from qlease.qmath import DimensionMismatchError, maximally_mixed, spawn_rng, state_distance
from measurement_reference import collapse


@pytest.fixture(scope="module")
def scheme():
    return qas.build_scheme(1, 1, 6)


@pytest.fixture(scope="module")
def ssl(scheme):
    return SslScheme(scheme)


def test_lease_is_protect_passthrough(ssl, scheme):
    pf = PointFunction(18, 6)
    leased = ssl_lease(ssl, pf)
    assert np.array_equal(leased.state.amplitudes, cp.protect(scheme, 18).state.amplitudes)
    again = ssl_lease(ssl, pf)
    assert np.array_equal(leased.state.amplitudes, again.state.amplitudes)


def test_lease_length_mismatch(ssl):
    with pytest.raises(Exception):
        ssl_lease(ssl, PointFunction(1, 4))


@pytest.mark.parametrize(
    "check",
    [
        lambda s, state, rng: ssl_verify(SslScheme(s, verify_r=0.5), PointFunction(3, 4), state, rng),
        lambda s, state, rng: cc_verify(SslScheme(s, verify_r=0.5), CompareFunction.identity(4, 3), state, rng),
    ],
    ids=["ssl", "cc"],
)
def test_verify_refuses_a_point_of_another_length(scheme, check):
    # it once drew every challenge from the 16 strings of 4 bits, not from
    # the 64 keys, and accepted an honest program at rate 0.645
    rng = spawn_rng(3)
    with pytest.raises(DimensionMismatchError):
        check(scheme, cp.protect(scheme, 3).state, rng)


def test_eval_at_point_keeps_program(ssl):
    rng = spawn_rng(1)
    pf = PointFunction(44, 6)
    leased = ssl_lease(ssl, pf)
    original = leased.state
    for _ in range(4):
        bit, leased = evaluate_preserving(leased, 44, rng)
        assert bit == 1
    assert state_distance(leased.state, original) < 1e-9


def test_verify_honest_program_accepts(ssl):
    rng = spawn_rng(2)
    pf = PointFunction(7, 6)
    for _ in range(50):
        leased = ssl_lease(ssl, pf)
        assert ssl_verify(ssl, pf, leased.state, rng) == 1


def test_verify_maximally_mixed_rate(ssl, scheme):
    # oracle: point verification accepts the mixed state at exactly 2^-t
    rng = spawn_rng(3)
    pf = PointFunction(3, 6)
    accepts = sum(
        ssl_verify(ssl, pf, maximally_mixed(2), rng) for _ in range(4000)
    )
    rate = accepts / 4000
    sigma = np.sqrt(0.25 / 4000)
    assert abs(rate - 0.5) < 4 * sigma


def test_verify_wrong_program_rate_matches_overlap(ssl, scheme):
    # oracle: acceptance of protect(p') under verification at p equals the
    # accept-projector overlap, computed directly
    rng = spawn_rng(4)
    p, p_other = 5, 9
    assert scheme.key_index(p) != scheme.key_index(p_other)
    state = cp.protect(scheme, p_other).state
    expected = qas.accept_probability(scheme, p, state)
    pf = PointFunction(p, 6)
    accepts = sum(ssl_verify(ssl, pf, state, rng) for _ in range(4000))
    sigma = np.sqrt(max(expected * (1 - expected), 0.05) / 4000)
    assert abs(accepts / 4000 - expected) < 4 * sigma + 1e-9


def test_verify_transcript(ssl):
    rng = spawn_rng(5)
    pf = PointFunction(11, 6)
    log: list = []
    leased = ssl_lease(ssl, pf)
    ssl_verify(ssl, pf, leased.state, rng, transcript=log)
    assert log == [{"x": 11, "outcome": 1, "accept": 1}]


def test_verify_distribution_default_point_mass(ssl):
    dist = verify_distribution(ssl, PointFunction(9, 6))
    assert dist.prob(9) == 1.0


def test_repeated_evaluation_degradation(ssl, scheme):
    # acceptance after e evaluations at challenge draws: monotone
    # non-increasing in e and within the recorded constant of e*eta
    rng = spawn_rng(6)
    p = 27
    pf = PointFunction(p, 6)
    dist = cp.ChallengeDistribution(6, p, 0.5)
    eta = 1.0 - cp.correctness_exact(scheme, p, cp.PointFamily(6, 0.5))
    trials = 1500
    rates = []
    for evals in range(3):
        accepted = 0
        for _ in range(trials):
            leased = ssl_lease(ssl, pf)
            for _ in range(evals):
                _, leased = evaluate_preserving(leased, dist.sample(rng), rng)
            accepted += ssl_verify(ssl, pf, leased.state, rng)
        rates.append(accepted / trials)
    noise = 4 * np.sqrt(0.25 / trials)
    assert rates[0] > 1 - 1e-9
    assert rates[1] <= rates[0] + noise
    assert rates[2] <= rates[1] + noise
    for e, rate in enumerate(rates):
        c = (1 - rate) / (e * eta) if e else 0.0
        assert rate >= 1 - 4 * e * eta - noise
        assert c <= 4 + 1e-9


# ---------------------------------------------------------------------------
# compute-and-compare
# ---------------------------------------------------------------------------


def make_cf() -> CompareFunction:
    # f: 4 bits -> 6 bits through a fixed scrambling table
    table = tuple((5 * x + 3) % 64 for x in range(16))
    return CompareFunction(table, 6, table[6])


def test_cc_payload_point_is_target(ssl, scheme):
    # the target is in the quantum payload only; the table is in the clear
    cf = make_cf()
    leased = cc_lease(ssl, cf)
    assert np.array_equal(leased.state.amplitudes, cp.protect(scheme, cf.target).state.amplitudes)
    assert leased.table == cf.table  # stored verbatim


def test_cc_identity_recovers_point_functions(ssl, scheme):
    cf = CompareFunction.identity(6, 23)
    leased = cc_lease(ssl, cf)
    plain = ssl_lease(ssl, PointFunction(23, 6))
    assert np.array_equal(leased.state.amplitudes, plain.state.amplitudes)
    rng = spawn_rng(7)
    bit, _ = evaluate_preserving(leased, 23, rng)
    assert bit == 1


def test_cc_eval_accepting_input(ssl):
    cf = make_cf()
    rng = spawn_rng(8)
    leased = cc_lease(ssl, cf)
    assert cf(6) == 1
    bit, _ = evaluate_preserving(leased, 6, rng)
    assert bit == 1


def test_cc_eval_matches_point_eval_bitwise(ssl):
    # composition property under a shared seed: the CC program at x is the
    # point program of the target at f(x), bit for bit and state for state
    cf = make_cf()
    for x in range(16):
        a, a_post = evaluate_preserving(cc_lease(ssl, cf), x, spawn_rng(100 + x))
        b, b_post = evaluate_preserving(ssl_lease(ssl, PointFunction(cf.target, 6)), cf.f(x), spawn_rng(100 + x))
        assert a == b
        assert np.array_equal(a_post.state.amplitudes, b_post.state.amplitudes)
        assert a_post.table == cf.table


def test_cc_destructive_eval_matches_point_eval_bitwise(ssl):
    cf = make_cf()
    for x in range(16):
        leased = cc_lease(ssl, cf)
        a = evaluate(leased, x, spawn_rng(100 + x))
        b = evaluate(ssl_lease(ssl, PointFunction(cf.target, 6)), cf.f(x), spawn_rng(100 + x))
        assert leased.consumed and a == b
        if cf(x):
            assert a == 1


@pytest.mark.parametrize(
    "lease",
    [
        lambda ssl: ssl_lease(ssl, PointFunction(40, 6)),
        lambda ssl: cc_lease(ssl, CompareFunction.identity(6, 40)),
        lambda ssl: cc_lease(ssl, make_cf()),
    ],
    ids=["point", "cc-identity", "cc-table"],
)
def test_a_lease_holds_no_circuit_and_no_target(ssl, lease):
    # the lessee gets the program and f's public table, nothing naming the point
    leased = lease(ssl)
    assert type(leased) is cp.ProtectedProgram
    assert [f.name for f in dataclasses.fields(leased)] == ["state", "scheme", "mix", "table", "consumed"]
    assert leased.mix is None
    assert leased.table is None or all(isinstance(v, int) for v in leased.table)
    assert not any(isinstance(v, (PointFunction, CompareFunction)) for v in vars(leased).values())


def test_a_mixed_cc_program_is_measured_at_the_permuted_image(ssl, scheme):
    # h_r(f(x)): the key is f's image pushed through h_r, never x or f(x) alone
    cf = make_cf()
    r = (5, 17)
    fam = PairwisePermFamily(6)
    def program():
        return dataclasses.replace(cp.mix_protect(scheme, cf.target, None, r=r), table=cf.table)

    for x in range(16):
        prog = program()
        assert prog._key(x) == fam.apply(r, cf.f(x))
        bit, post = evaluate_preserving(prog, x, spawn_rng(200 + x))
        expected = collapse(prog.state, qas.adjoint_isometry(scheme, fam.apply(r, cf.f(x))), bit)
        assert np.array_equal(post.state.amplitudes, expected.amplitudes)
        if cf(x):
            assert bit == 1
        assert (post.mix, post.table) == (r, cf.table)
    assert evaluate(program(), 6, spawn_rng(0)) == 1


def test_cc_verify_honest_and_mixed(ssl):
    cf = make_cf()
    rng = spawn_rng(9)
    leased = cc_lease(ssl, cf)
    assert cc_verify(ssl, cf, leased.state, rng) == 1
    rejects = sum(
        1 - cc_verify(ssl, cf, maximally_mixed(2), rng) for _ in range(2000)
    )
    assert abs(rejects / 2000 - 0.5) < 0.05  # 1 - 2^-t at t=1


def test_cc_verify_equals_point_verify_for_identity(ssl):
    cf = CompareFunction.identity(6, 40)
    state = ssl_lease(ssl, PointFunction(40, 6)).state
    a = cc_verify(ssl, cf, state, spawn_rng(10))
    b = ssl_verify(ssl, PointFunction(40, 6), state, spawn_rng(10))
    assert a == b == 1


def test_pushforward_exact():
    cf = make_cf()
    dist = cp.ChallengeDistribution(4, 6, 0.5)
    pushed = pushforward(cf, dist)
    # independent accumulation oracle
    expect = np.zeros(64)
    for x in range(16):
        expect[cf.f(x)] += dist.prob(x)
    assert pushed.shape == (64,)
    assert np.max(np.abs(pushed - expect)) < 1e-12
    assert abs(pushed.sum() - 1.0) < 1e-12
    assert not pushed.flags.writeable


def test_pushforward_sampling_agrees():
    cf = make_cf()
    dist = cp.ChallengeDistribution(4)
    pushed = pushforward(cf, dist)
    rng = spawn_rng(11)
    counts = np.zeros(64)
    n = 20000
    for _ in range(n):
        counts[cf.f(dist.sample(rng))] += 1
    assert np.max(np.abs(counts / n - pushed)) < 0.02
    assert not pushed.flags.writeable


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda ssl: cc_lease(ssl, CompareFunction((0, 1), 2, 0)), "target length"),
        (lambda ssl: pushforward(CompareFunction((0, 1), 6, 0), cp.ChallengeDistribution(6)), "domain"),
        # a negative index once read the table from its end: f(15) at x = -1
        (lambda ssl: evaluate(cc_lease(ssl, make_cf()), -1, spawn_rng(1)), "domain of f"),
        (lambda ssl: evaluate_preserving(cc_lease(ssl, make_cf()), 16, spawn_rng(1)), "domain of f"),
    ],
    ids=["cc-lease-target-bits", "pushforward-domain", "cc-eval-negative-input", "cc-eval-input-past-the-table"],
)
def test_compute_and_compare_refusals(ssl, call, match):
    with pytest.raises(ValueError, match=match):
        call(ssl)


def test_epsilon_f_budget():
    assert epsilon_f(0.75, 0.5, 0.1) == pytest.approx(0.35)
    assert epsilon_f(0.5, 0.5, 0.2) == pytest.approx(0.2)


def test_compare_function_validation():
    with pytest.raises(ValueError):
        CompareFunction((0, 1, 2), 2, 0)  # not a power of two
    with pytest.raises(ValueError):
        CompareFunction((0, 4), 2, 0)  # value outside range
    with pytest.raises(ValueError):
        CompareFunction((0, 1), 2, 9)  # target outside range


@pytest.mark.parametrize(
    "args",
    [((0,), 0, 0), ((0, 1), True, 1), ((0, 1), 1.0, 1), ((0.5, 1), 1, 1), ((True, 1), 1, 1), ((0, 1), 1, 1.0), ((0, 1), 1, False)],
    ids=["zero-bits", "bool-bits", "float-bits", "float-entry", "bool-entry", "float-target", "bool-target"],
)
def test_compare_function_refuses_values_off_the_bit_length_rule(args):
    # out_bits is an int >= 1, and entries and target are ints in {0,1}^out_bits
    with pytest.raises(ValueError):
        CompareFunction(*args)


@pytest.mark.parametrize("r", [1.5, -0.1, float("nan")])
def test_ssl_scheme_rejects_a_mass_outside_the_unit_interval(scheme, r):
    with pytest.raises(ValueError, match="verify_r"):
        SslScheme(scheme, verify_r=r)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_ssl_scheme_accepts_the_unit_interval(scheme, r):
    assert SslScheme(scheme, verify_r=r).verify_r == r
