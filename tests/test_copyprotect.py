"""Tests for point-function protection, preserving evaluation, exact
correctness, the permutation wrapper and the challenge distributions."""

import itertools
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlease import copyprotect as cp
from qlease import qas
from qlease.designs import EpsUniformMap, IndexedCliffordDesign, PairwisePermFamily
from qlease.qmath import (
    ATOL,
    DensityOperator,
    DimensionMismatchError,
    PureState,
    random_density,
    spawn_rng,
    state_distance,
    trace_distance,
    zero_state,
)

from measurement_reference import collapse


@pytest.fixture(scope="module")
def scheme():
    return qas.build_scheme(1, 1, 6)


# ---------------------------------------------------------------------------
# point functions
# ---------------------------------------------------------------------------


def test_point_function_evaluation():
    pf = cp.PointFunction(0b0101, 4)
    assert pf(0b0101) == 1
    assert all(pf(x) == 0 for x in range(16) if x != 0b0101)


def test_point_function_range_check():
    with pytest.raises(ValueError):
        cp.PointFunction(8, 3)


@pytest.mark.parametrize("point", [2.5, True])
def test_point_function_needs_an_integer_point(point):
    with pytest.raises(ValueError):
        cp.PointFunction(point, 3)


# ---------------------------------------------------------------------------
# challenge distributions
# ---------------------------------------------------------------------------


def test_tables_normalized():
    for dist in (cp.ChallengeDistribution(4), cp.ChallengeDistribution(4, 3, 0.5), cp.ChallengeDistribution(4, 3, 0.8)):
        assert abs(dist.probs.sum() - 1.0) < 1e-12
        assert np.all(dist.probs >= 0)


def test_dhalf_masses():
    dist = cp.ChallengeDistribution(4, 5, 0.5)
    assert dist.prob(5) == 0.5
    assert abs(dist.prob(0) - 0.5 / 15) < 1e-15


def test_biased_point_masses():
    dist = cp.ChallengeDistribution(3, 2, 0.75)
    assert dist.prob(2) == 0.75
    assert abs(dist.prob(0) - 0.25 / 7) < 1e-15


def test_point_mass_always_returns_point():
    dist = cp.ChallengeDistribution(5, 9, 1.0)
    rng = spawn_rng(0)
    assert all(dist.sample(rng) == 9 for _ in range(100))


def test_dhalf_empirical_frequency():
    dist = cp.ChallengeDistribution(6, 2, 0.5)
    rng = spawn_rng(1)
    hits = sum(dist.sample(rng) == 2 for _ in range(10**4))
    sigma = np.sqrt(0.25 / 10**4)
    assert abs(hits / 10**4 - 0.5) < 3 * sigma + 1e-9


def test_uniform_chi2():
    from scipy import stats

    dist = cp.ChallengeDistribution(3)
    rng = spawn_rng(2)
    counts = np.zeros(8, dtype=int)
    for _ in range(10**4):
        counts[dist.sample(rng)] += 1
    assert stats.chisquare(counts).pvalue > 1e-3


def test_sample_pair_independent_product():
    d1, d2 = cp.ChallengeDistribution(3, 1, 1.0), cp.ChallengeDistribution(3)
    rng = spawn_rng(3)
    first, second = zip(*((d1.sample(rng), d2.sample(rng)) for _ in range(500)))
    assert set(first) == {1}
    assert len(set(second)) == 8


def _exact_weight(dist, x):
    """The exact weight of ``x`` read from :meth:`exact_shape`."""
    flat, peak, top = dist.exact_shape()
    return top if x == peak else flat


def test_exact_shape_structured():
    assert cp.ChallengeDistribution(3).exact_shape() == (Fraction(1, 8), None, Fraction(1, 8))
    assert cp.ChallengeDistribution(3, 0, 0.5).exact_shape() == (Fraction(1, 14), 0, Fraction(1, 2))
    assert cp.ChallengeDistribution(3, 5, 0.0).exact_shape() == (Fraction(1, 7), 5, Fraction(0))


#: (domain bits, |B|): 2^k below, equal to and above the number of indices;
#: the last |B| is the 6-qubit Clifford group's, of which 2^6 keys reach 64.
CLASS_MAPS = [(4, 24), (5, 32), (6, 24), (7, 11), (6, IndexedCliffordDesign(6).cardinality)]


def _class_distributions(bits):
    n = 1 << bits
    return [
        cp.ChallengeDistribution(bits),
        cp.ChallengeDistribution(bits, 3, 0.5),
        cp.ChallengeDistribution(bits, n - 1, 0.9),
        cp.ChallengeDistribution(bits, 0, 1.0),
        cp.ChallengeDistribution(bits, 5, 0.0),
    ]


@pytest.mark.parametrize("bits,size", CLASS_MAPS)
def test_class_weights_sum_probs_over_the_key_map(bits, size):
    key_map = EpsUniformMap(bits, size)
    images = [key_map.apply(x) for x in range(1 << bits)]
    for dist in _class_distributions(bits):
        weights = dist.class_weights(key_map)
        # only the indices the map reaches carry a weight
        reached = min(1 << bits, size)
        expected = np.bincount(images, weights=dist.probs, minlength=reached)
        assert weights.shape == (reached,)
        assert np.max(np.abs(weights - expected)) <= 1e-15, dist
        assert abs(weights.sum() - 1.0) < 1e-12, dist


def test_class_weights_need_the_map_domain():
    with pytest.raises(DimensionMismatchError):
        cp.ChallengeDistribution(4).class_weights(EpsUniformMap(5, 24))


#: Distributions that must be refused when they are built.
INVALID_DISTRIBUTIONS = {
    "negative-point": lambda: cp.ChallengeDistribution(3, -1, 0.5),
    "point-too-large": lambda: cp.ChallengeDistribution(3, 9, 0.5),
    # once built, probs raised IndexError and sample returned 2.5
    "fractional-point": lambda: cp.ChallengeDistribution(3, 2.5, 0.5),
    "bool-point": lambda: cp.ChallengeDistribution(3, True, 0.5),
    "zero-bits-dhalf": lambda: cp.ChallengeDistribution(0, 0, 0.5),
    "zero-bits-biased": lambda: cp.ChallengeDistribution(0, 0, 0.3),
    "r-above-one": lambda: cp.ChallengeDistribution(3, 0, 1.5),
    "r-nan": lambda: cp.ChallengeDistribution(3, 0, float("nan")),
    "zero-bits-uniform": lambda: cp.ChallengeDistribution(0),
    # a point and its mass come together, or neither does
    "biased-without-r": lambda: cp.ChallengeDistribution(2, point=1),
    "biased-without-point": lambda: cp.ChallengeDistribution(2, r=0.5),
}


@pytest.mark.parametrize("build", INVALID_DISTRIBUTIONS.values(), ids=INVALID_DISTRIBUTIONS.keys())
def test_invalid_distributions_fail_at_construction(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: qas.build_scheme(True, True, 6),
        lambda: qas.build_scheme(1, 1, True),
        lambda: cp.ChallengeDistribution(True),
        lambda: cp.PointFamily(True, 0.5),
    ],
    ids=["scheme-qubits", "scheme-key-bits", "distribution", "point-family"],
)
def test_bools_are_refused_as_bit_lengths_and_qubit_counts(build):
    with pytest.raises(ValueError):
        build()


def test_point_family_builds_biased_points():
    family = cp.PointFamily(3, 0.75)
    assert family(5) == cp.ChallengeDistribution(3, 5, 0.75)
    assert family.weights() == (Fraction(1, 28), Fraction(3, 4))
    # an r with no short rational keeps its exact binary value
    r = 0.1 + 2.0**-50
    assert cp.PointFamily(3, r).weights()[1] == Fraction(r)


@pytest.mark.parametrize("bits", [1, 6, 20])
@pytest.mark.parametrize("r", [0.0, 0.5, 0.75, 1.0])
def test_point_family_draws_its_members_draws(bits, r):
    # the game draws challenges from the family at a point, without building
    # the member: the same values, draw for draw, and the same generator state
    family = cp.PointFamily(bits, r)
    for point in (0, (1 << bits) - 1):
        ours, members = spawn_rng(17, bits, point), spawn_rng(17, bits, point)
        for _ in range(200):
            assert family.sample(point, ours) == family(point).sample(members)
        assert ours.bit_generator.state == members.bit_generator.state


@pytest.mark.parametrize("bits,r", [(0, 0.5), (-1, 0.5), (2.0, 0.5), (3, -0.1), (3, 1.5), (3, float("nan"))])
def test_point_family_is_validated_when_built(bits, r):
    with pytest.raises(ValueError):
        cp.PointFamily(bits, r)


def test_structured_distributions_hold_no_array():
    assert [f.name for f in fields(cp.ChallengeDistribution)] == ["bits", "point", "r"]
    for dist in (
        cp.ChallengeDistribution(20),
        cp.ChallengeDistribution(20, 3, 0.5),
        cp.ChallengeDistribution(20, 3, 0.3),
        cp.ChallengeDistribution(20, 1, 1.0),
        cp.ChallengeDistribution(20, 7, 0.0),
    ):
        assert not any(isinstance(value, np.ndarray) for value in vars(dist).values()), dist


class _ParentDistribution:
    """The distributions as a dense table plus their kind, point and r,
    with the probabilities, exact weights and draws they had as such:
    the reference the shape-only distributions must reproduce."""

    def __init__(self, bits, probs, kind, point=None, r=None):
        self.bits, self.probs, self.kind, self.point, self.r = bits, probs, kind, point, r
        self.size = 1 << bits

    @classmethod
    def uniform(cls, bits):
        n = 1 << bits
        return cls(bits, np.full(n, 1.0 / n), "uniform")

    @classmethod
    def dhalf(cls, point, bits):
        n = 1 << bits
        probs = np.full(n, 0.5 / (n - 1))
        probs[point] = 0.5
        return cls(bits, probs, "dhalf", point)

    @classmethod
    def biased(cls, point, bits, r):
        n = 1 << bits
        probs = np.full(n, (1.0 - r) / (n - 1))
        probs[point] = r
        return cls(bits, probs, "biased", point, r)

    def prob(self, x):
        return float(self.probs[x])

    def prob_fraction(self, x):
        n = self.size
        if self.kind == "uniform":
            return Fraction(1, n)
        if self.kind == "dhalf":
            return Fraction(1, 2) if x == self.point else Fraction(1, 2 * (n - 1))
        fr = Fraction(self.r).limit_denominator(10**12)
        if float(fr) != self.r:
            fr = Fraction(self.r)
        return fr if x == self.point else (1 - fr) / (n - 1)

    def sample(self, rng):
        if self.kind == "uniform":
            return int(rng.integers(self.size))
        r = 0.5 if self.kind == "dhalf" else self.r
        if rng.random() < r:
            return self.point
        other = int(rng.integers(self.size - 1))
        return other + (other >= self.point)


@st.composite
def _distribution_pairs(draw):
    bits = draw(st.integers(1, 10))
    point = draw(st.integers(0, (1 << bits) - 1))
    kind = draw(st.sampled_from(["uniform", "dhalf", "biased"]))
    if kind == "uniform":
        return cp.ChallengeDistribution(bits), _ParentDistribution.uniform(bits)
    if kind == "dhalf":
        return cp.ChallengeDistribution(bits, point, 0.5), _ParentDistribution.dhalf(point, bits)
    exact = st.sampled_from([0.0, 0.125, 0.3, 0.5, 0.75, 1.0])
    r = draw(st.one_of(exact, st.floats(0.0, 1.0)))
    return cp.ChallengeDistribution(bits, point, r), _ParentDistribution.biased(point, bits, r)


@settings(max_examples=200, deadline=None)
@given(_distribution_pairs(), st.integers(0, 2**32 - 1))
def test_shapes_reproduce_the_dense_tables(pair, seed):
    dist, parent = pair
    assert dist.probs.tobytes() == parent.probs.tobytes()
    n = dist.size
    probe = {0, n - 1, *(x % n for x in (parent.point or 0, (parent.point or 0) + 1))}
    for x in probe:
        assert dist.prob(x) == parent.prob(x)
        assert _exact_weight(dist, x) == parent.prob_fraction(x)
    ours, theirs = spawn_rng(seed), spawn_rng(seed)
    assert [dist.sample(ours) for _ in range(20)] == [parent.sample(theirs) for _ in range(20)]
    assert ours.bit_generator.state == theirs.bit_generator.state


# ---------------------------------------------------------------------------
# protect / evaluate
# ---------------------------------------------------------------------------


def test_protect_is_deterministic_unit_vector(scheme):
    a = cp.protect(scheme, 12)
    b = cp.protect(scheme, 12)
    assert isinstance(a.state, PureState)
    assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
    # the program is the keyed unitary applied to |0...0>
    u = scheme.design.element(scheme.key_index(12))
    assert np.allclose(a.state.amplitudes, u[:, 0])


@pytest.mark.parametrize(
    "shape", [(1, 1, 6), (2, 1, 6), (3, 3, 6), (1, 5, 8), (5, 1, 8), (1, 1, 14)], ids=lambda s: ",".join(map(str, s))
)
def test_protect_is_the_encoded_zero_state_bit_for_bit(shape):
    # the program is read as the key's first encoding column; auth encodes
    # |0^m> through the product, which leaves +0.0 where the column may
    # hold -0.0 (412 of the 16,384 programs at 1,1,14 differ only so); at
    # most 4,096 keys, evenly spaced
    scheme = qas.build_scheme(*shape)
    zero = zero_state(scheme.message_qubits)
    for p in range(0, 1 << scheme.key_bits, max(1, (1 << scheme.key_bits) >> 12)):
        expected = qas.auth(scheme, p, zero).amplitudes
        assert cp.protect(scheme, p).state.amplitudes.tobytes() == expected.tobytes()


def test_distinct_points_distinct_states(scheme):
    # distinct design indices usually, but not always, give distinct
    # program states (distinct unitaries can share a first column); the
    # trace distance must agree with the direct overlap computation and
    # be strictly positive exactly when the overlap says the states differ
    rng = spawn_rng(4)
    positives = 0
    for _ in range(30):
        p, q = (int(v) for v in rng.integers(64, size=2))
        if scheme.key_index(p) == scheme.key_index(q):
            continue
        a, b = cp.protect(scheme, p).state, cp.protect(scheme, q).state
        d = state_distance(a, b)
        overlap = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
        assert abs(d - np.sqrt(max(1.0 - overlap, 0.0))) < 1e-7
        if overlap < 1 - 1e-9:
            assert d > 0
            positives += 1
    assert positives > 0


def test_evaluate_at_point_always_one(scheme):
    rng = spawn_rng(5)
    for p in range(64):
        assert cp.evaluate(cp.protect(scheme, p), p, rng) == 1


def test_evaluate_consumes(scheme):
    rng = spawn_rng(6)
    prog = cp.protect(scheme, 1)
    cp.evaluate(prog, 1, rng)
    with pytest.raises(cp.ConsumedProgramError):
        cp.evaluate(prog, 1, rng)
    with pytest.raises(cp.ConsumedProgramError):
        cp.evaluate_preserving(prog, 1, rng)


def test_wrong_point_average_matches_design_average():
    # two routes to E_{p, x != p}[accept]: per-key enumeration vs the
    # key-space average with the correct-key term removed; per point, the
    # enumeration is also the index-class sum of wrong_key_average_excluding
    scheme = qas.build_scheme(1, 1, 4)
    n = 16
    total = 0.0
    key_avgs = 0.0
    for p in range(n):
        state = cp.protect(scheme, p).state
        acc = np.array([qas.accept_probability(scheme, x, state) for x in range(n)])
        wrong = (acc.sum() - acc[p]) / (n - 1)
        assert abs(wrong - cp.wrong_key_average_excluding(scheme, p)) < 1e-15
        total += wrong
        key_avgs += qas.avg_wrong_key_accept(scheme, state)
    via_enumeration = total / n
    via_key_average = (key_avgs / n * n - 1.0) / (n - 1)
    assert abs(via_enumeration - via_key_average) < 1e-9


# ---------------------------------------------------------------------------
# preserving evaluation
# ---------------------------------------------------------------------------


def test_preserving_at_point_exact(scheme):
    rng = spawn_rng(7)
    for p in (0, 17, 63):
        prog = cp.protect(scheme, p)
        original = prog.state
        bit, post = cp.evaluate_preserving(prog, p, rng)
        assert bit == 1
        assert state_distance(post.state, original) < 1e-9


def test_preserving_matches_projective_oracle(scheme):
    # oracle: direct two-outcome measurement of the accept projector
    rng = spawn_rng(8)
    for _ in range(20):
        p, x = (int(v) for v in rng.integers(64, size=2))
        prog = cp.protect(scheme, p)
        psi = prog.state.amplitudes
        proj = cp.accept_projector(scheme, x)
        a = float(np.real(psi.conj() @ proj @ psi))
        bit, post = cp.evaluate_preserving(prog, x, rng)
        branch = (proj if bit else np.eye(4) - proj) @ psi
        norm = np.linalg.norm(branch)
        assert norm > 1e-9
        assert state_distance(post.state, PureState(branch / norm)) < 1e-9
        # measured frequency sanity is covered by the damage test below
        assert 0.0 <= a <= 1.0 + 1e-12


def test_preserving_mixed_program(scheme):
    # a mixed program: a random mixed message authenticated under the point
    rng = spawn_rng(16)
    for _ in range(10):
        p, x = (int(v) for v in rng.integers(64, size=2))
        if scheme.key_index(x) == scheme.key_index(p):
            continue
        state = qas.auth(scheme, p, random_density(1, rng))
        bit, post = cp.evaluate_preserving(cp.ProtectedProgram(state, scheme), p, rng)
        assert bit == 1
        assert isinstance(post.state, DensityOperator)
        assert state_distance(post.state, state) < ATOL
        # at another input: the post-state is P rho P / Tr(P rho) for the
        # projector P of the outcome that occurred
        bit, post = cp.evaluate_preserving(cp.ProtectedProgram(state, scheme), x, rng)
        proj = cp.accept_projector(scheme, x)
        proj = proj if bit else np.eye(4) - proj
        branch = proj @ state.matrix @ proj
        weight = np.trace(branch).real
        assert weight > 1e-9
        assert np.max(np.abs(post.state.matrix - branch / weight)) < ATOL


def test_evaluation_measurement_outcome_one_accepts():
    # A_x† has orthonormal rows and its range projector is A_x A_x†, at
    # enumerated (1,1,6) and indexed (2,1,6 and 3,3,6) designs
    for params, x in itertools.product([(1, 1, 6), (2, 1, 6), (3, 3, 6)], (0, 5, 63)):
        scheme = qas.build_scheme(*params)
        accept = qas.adjoint_isometry(scheme, x)
        assert accept.shape == (scheme.message_dim, scheme.total_dim)
        assert np.max(np.abs(accept @ accept.conj().T - np.eye(scheme.message_dim))) < ATOL
        assert np.max(np.abs(accept.conj().T @ accept - cp.accept_projector(scheme, x))) < ATOL


def test_preserving_reusable_many_times(scheme):
    rng = spawn_rng(9)
    prog = cp.protect(scheme, 33)
    original = prog.state
    for _ in range(5):
        bit, prog = cp.evaluate_preserving(prog, 33, rng)
        assert bit == 1
    assert state_distance(prog.state, original) < 1e-9


def test_dephasing_damage_closed_form(scheme):
    # oracle: for a pure program the unselected evaluation damage is
    # sqrt(a (1 - a)) with a the accept probability
    rng = spawn_rng(10)
    for _ in range(15):
        p, x = (int(v) for v in rng.integers(64, size=2))
        state = cp.protect(scheme, p).state
        a = qas.accept_probability(scheme, x, state)
        damage = trace_distance(
            state.density(), cp.post_evaluation_state(scheme, state, x)
        )
        # compare squared to dodge the cancellation at a ~ 1
        assert abs(damage**2 - a * (1 - a)) < 1e-9
        assert damage <= 2 * np.sqrt(a) + 1e-9


def test_reusability_damage_closed_form_matches_brute_force(scheme):
    # the closed form the reusability criterion sums, over index classes
    # and over keys; sqrt amplifies the ~1e-15 rounding of 1 - a near
    # a = 1 to a few 1e-8 per key
    rng = spawn_rng(15)
    for _ in range(3):
        p = int(rng.integers(64))
        dist = cp.ChallengeDistribution(6, p, 0.5)
        state = cp.protect(scheme, p).state
        acc = np.clip(qas.acceptance_by_index(scheme, state), 0, 1)
        weights = dist.class_weights(scheme.key_map)
        closed = float(weights @ np.sqrt(acc[: len(weights)] * (1 - acc[: len(weights)])))
        per_key = np.clip([qas.accept_probability(scheme, x, state) for x in range(64)], 0, 1)
        by_key = float(dist.probs @ np.sqrt(per_key * (1 - per_key)))
        brute = sum(
            dist.prob(x)
            * trace_distance(state.density(), cp.post_evaluation_state(scheme, state, x))
            for x in range(64)
        )
        assert abs(closed - brute) < 1e-7
        assert abs(by_key - brute) < 1e-7


def test_average_damage_within_constant_of_eta(scheme):
    rng = spawn_rng(11)
    for _ in range(3):
        p = int(rng.integers(64))
        dist = cp.ChallengeDistribution(6, p, 0.5)
        state = cp.protect(scheme, p).state
        damage = sum(
            dist.prob(x)
            * trace_distance(state.density(), cp.post_evaluation_state(scheme, state, x))
            for x in range(64)
        )
        eta = 1.0 - cp.correctness_exact(scheme, p, cp.PointFamily(6, 0.5))
        assert damage <= 4 * eta


# ---------------------------------------------------------------------------
# exact correctness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda s: cp.protect(s, 64), ValueError),
        (lambda s: cp.protect(s, -1), ValueError),
        (lambda s: cp.correctness_exact(s, 3, cp.PointFamily(5, 0.5)), DimensionMismatchError),
        # a distribution repeats the point and could be centred elsewhere: it
        # once gave 0.0246 here, where the sum over all 64 challenges is 0.4738
        (lambda s: cp.correctness_exact(s, 3, cp.ChallengeDistribution(6, 10, 0.9)), TypeError),
    ],
    ids=["point-above", "point-below", "family-bits", "distribution"],
)
def test_protection_refuses_inputs_off_the_scheme(scheme, call, error):
    with pytest.raises(error):
        call(scheme)


#: Every entry that takes a key, a point or an input, called at ``key``.
KEY_ENTRIES = {
    "protect": lambda s, key: cp.protect(s, key),
    "evaluate": lambda s, key: cp.evaluate(cp.protect(s, 1), key, spawn_rng(0)),
    "evaluate-preserving": lambda s, key: cp.evaluate_preserving(cp.protect(s, 1), key, spawn_rng(0)),
    "adjoint-isometry": lambda s, key: qas.adjoint_isometry(s, key),
    "acceptances": lambda s, key: qas.acceptances(s, [key], [cp.protect(s, 1).state]),
    "mix-protect": lambda s, key: cp.mix_protect(s, key, spawn_rng(0)),
    "perm-input": lambda s, key: PairwisePermFamily(s.key_bits).apply((1, 0), key),
    "perm-slope": lambda s, key: PairwisePermFamily(s.key_bits).apply((key, 0), 1),
    "perm-shift": lambda s, key: PairwisePermFamily(s.key_bits).apply((1, key), 1),
    "table-evaluate": lambda s, key: cp.evaluate(
        replace(cp.protect(s, 3), table=tuple(range(1 << s.key_bits))), key, spawn_rng(0)
    ),
}


@pytest.mark.parametrize("key", [True, 1.0, 1.5, np.float64(1.0), np.bool_(True)], ids=repr)
@pytest.mark.parametrize("entry", KEY_ENTRIES.values(), ids=KEY_ENTRIES.keys())
def test_every_key_entry_takes_bit_strings_only(scheme, entry, key):
    # True once measured and protected at key 1, and acceptances at 1.5
    # ended in numpy's IndexError
    with pytest.raises(ValueError):
        entry(scheme, key)


@pytest.mark.parametrize("keys", [np.array([True]), np.array([1.0]), np.array([0, 1.5])], ids=str)
def test_key_arrays_of_bools_or_floats_are_refused(scheme, keys):
    for call in (
        lambda: scheme.key_index(keys),
        lambda: qas.adjoint_isometry(scheme, keys),
        lambda: qas.acceptances(scheme, keys, [cp.protect(scheme, 1).state] * len(keys)),
    ):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("kind", [np.int64, np.uint64])
def test_numpy_integer_keys_give_the_bits_of_python_ints(scheme, kind):
    mixed = cp.mix_protect(scheme, 9, spawn_rng(3))
    tabled = replace(cp.protect(scheme, 3), table=tuple(range(64)))
    for key in (0, 9, 63):
        same = [
            (lambda k: cp.protect(scheme, k).state.amplitudes.tobytes()),
            (lambda k: qas.adjoint_isometry(scheme, k).tobytes()),
            (lambda k: cp.mix_protect(scheme, k, spawn_rng(4)).state.amplitudes.tobytes()),
            (lambda k: cp.evaluate_preserving(replace(mixed), k, spawn_rng(5))[1].state.amplitudes.tobytes()),
            (lambda k: cp.evaluate_preserving(replace(tabled), k, spawn_rng(5))[1].state.amplitudes.tobytes()),
        ]
        for read in same:
            assert read(kind(key)) == read(key)
        assert scheme.key_index(kind(key)) == scheme.key_index(key)
        # a numpy slope once failed in gf_mul with AttributeError
        family = PairwisePermFamily(6)
        assert family.apply((kind(key | 1), kind(key)), kind(key)) == family.apply((key | 1, key), key)
        assert qas.acceptances(scheme, np.array([key], dtype=kind), [mixed.state]).tobytes() == (
            qas.acceptances(scheme, [key], [mixed.state]).tobytes()
        )


def test_correctness_point_mass_is_one(scheme):
    assert abs(cp.correctness_exact(scheme, 9, cp.PointFamily(6, 1.0)) - 1.0) < 1e-12


def test_correctness_identity_with_wrong_key_average(scheme):
    for p in (0, 21, 42):
        corr = cp.correctness_exact(scheme, p, cp.PointFamily(6, 0.5))
        ident = 1.0 - 0.5 * cp.wrong_key_average_excluding(scheme, p)
        assert abs(corr - ident) < 1e-9


def test_correctness_uniform_off_point(scheme):
    # uniform over x != p: correctness = 1 - wrong-key average excluding p
    p = 13
    corr = cp.correctness_exact(scheme, p, cp.PointFamily(6, 0.0))
    assert abs(corr - (1.0 - cp.wrong_key_average_excluding(scheme, p))) < 1e-9


def test_correctness_one_minus_epsilon_gate(scheme):
    # the lower bound only binds when the recorded epsilon is <= 1/2
    if scheme.epsilon <= 0.5:
        for p in range(0, 64, 7):
            assert cp.correctness_exact(scheme, p, cp.PointFamily(6, 0.5)) >= 1 - scheme.epsilon
    else:
        assert scheme.epsilon > 0.5  # gated off at desk scale


# ---------------------------------------------------------------------------
# MIX wrapper
# ---------------------------------------------------------------------------


def test_mix_identity_param_matches_plain(scheme):
    rng = spawn_rng(12)
    prog = cp.mix_protect(scheme, 29, rng, r=(1, 0))
    plain = cp.protect(scheme, 29)
    assert np.allclose(prog.state.amplitudes, plain.state.amplitudes)
    assert cp.evaluate(prog, 29, rng) == 1


def test_mix_matched_point_always_one(scheme):
    rng = spawn_rng(13)
    for _ in range(20):
        p = int(rng.integers(64))
        prog = cp.mix_protect(scheme, p, rng)
        assert cp.evaluate(prog, p, rng) == 1


def test_mix_evaluation_reads_the_permuted_key(scheme):
    # the program encodes h_r(3); verifying at 3 itself would accept it
    # with probability below 1/2, so 20 draws of 1 show the key h_r(3)
    fam = PairwisePermFamily(6)
    r = (5, 17)
    assert qas.accept_probability(scheme, 3, cp.mix_protect(scheme, 3, None, r=r).state) < 0.5
    for seed in range(20):
        assert cp.evaluate(cp.mix_protect(scheme, 3, None, r=r), 3, spawn_rng(seed)) == 1
    # off the point, the preserving evaluation collapses onto the split of h_r(x)
    for x in (0, 40):
        prog = cp.mix_protect(scheme, 3, None, r=r)
        bit, post = cp.evaluate_preserving(prog, x, spawn_rng(x))
        expected = collapse(prog.state, qas.adjoint_isometry(scheme, fam.apply(r, x)), bit)
        assert np.array_equal(post.state.amplitudes, expected.amplitudes)
        assert post.mix == r


def test_mix_preserving_evaluation_at_the_point_keeps_the_state(scheme):
    rng = spawn_rng(14)
    for p in (3, 29, 60):
        prog = cp.mix_protect(scheme, p, rng)
        bit, post = cp.evaluate_preserving(prog, p, rng)
        assert bit == 1
        assert state_distance(post.state, prog.state) < ATOL
        assert cp.evaluate(post, p, rng) == 1


def test_mix_encoded_point_marginal_uniform():
    fam = PairwisePermFamily(2)
    counts = np.zeros(4, dtype=int)
    for r in fam.params():
        counts[fam.apply(r, 2)] += 1
    assert np.all(counts == fam.size // 4)


def test_mix_worst_case_error_bound():
    scheme = qas.build_scheme(1, 1, 2)
    eta = 1.0 - min(cp.correctness_exact(scheme, p, cp.PointFamily(2, 0.5)) for p in range(4))
    for p in range(4):
        for x in range(4):
            err = cp.mix_error_exact(scheme, p, x)
            assert err <= 2 * eta + 1e-12
            if x == p:
                assert err < 1e-12
