"""Tests for the dense linear-algebra layer."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlease import qmath
from qlease.qmath import (
    DensityOperator,
    DimensionMismatchError,
    KrausChannel,
    PureState,
    QubitCapError,
    apply_channel,
    embed_operator,
    haar_unitary,
    ket,
    measure_and_collapse,
    measure_projective,
    partial_trace,
    random_density,
    random_pure_state,
    spawn_rng,
    trace_distance,
    trace_norm,
    zero_state,
)

from measurement_reference import accept_branch, collapse

seeds = st.integers(0, 2**32 - 1)


def bell_state() -> PureState:
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_pure_state_requires_power_of_two():
    with pytest.raises(DimensionMismatchError):
        PureState(np.array([1.0, 0.0, 0.0]))


def test_density_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError):
        DensityOperator(m)


@pytest.mark.parametrize(
    "matrix,error,match",
    [(np.full((2, 4), 0.25), DimensionMismatchError, "square"), (np.eye(2), ValueError, "trace")],
    ids=["non-square", "trace-two"],
)
def test_density_rejects_a_non_square_or_unnormalised_matrix(matrix, error, match):
    with pytest.raises(error, match=match):
        DensityOperator(matrix)


def test_density_rejects_negative_eigenvalue():
    m = np.array([[1.5, 0.0], [0.0, -0.5]])
    with pytest.raises(ValueError):
        DensityOperator(m)

def test_kraus_channel_validation():
    k0 = np.sqrt(0.5) * np.eye(2)
    with pytest.raises(ValueError):
        KrausChannel((k0,))  # not trace preserving


@pytest.mark.parametrize(
    "build",
    [
        lambda: PureState(np.array([np.nan, 0.0])),
        lambda: DensityOperator(np.full((2, 2), np.nan)),
        lambda: DensityOperator(np.diag([np.nan, 1.0])),
        lambda: DensityOperator(np.array([[0.5, np.nan], [np.nan, 0.5]])),
        lambda: KrausChannel((np.full((2, 2), np.nan),)),
    ],
    ids=["pure", "density-all", "density-diagonal", "density-off-diagonal", "kraus"],
)
def test_a_nan_fails_every_container_check(build):
    # each check once read ``deviation > ATOL``, which a NaN passes
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("rank", [0, -1])
def test_random_density_refuses_a_rank_below_one_before_drawing(rank):
    # rank 0 once gave an all-NaN "density operator" after a RuntimeWarning
    rng = spawn_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="rank"):
        random_density(1, rng, rank=rank)
    assert rng.bit_generator.state == before


def test_qubit_cap_enforced():
    with pytest.raises(QubitCapError):
        zero_state(13)


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: zero_state(16),
        lambda rng: qmath.maximally_mixed(10),
        lambda rng: random_pure_state(16, rng),
        lambda rng: random_density(9, rng),
    ],
    ids=["zero-state", "maximally-mixed", "random-pure", "random-density"],
)
def test_state_constructors_refuse_over_the_cap_before_allocating(monkeypatch, build):
    # each once built its whole array (24 MiB for maximally_mixed(10))
    # before the container refused it
    monkeypatch.setattr(qmath, "QUBIT_CAP", 2)
    rng = spawn_rng(0)
    tracemalloc.start()
    try:
        with pytest.raises(QubitCapError):
            build(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------


def test_partial_trace_product_state():
    rho = ket("01").density()
    out = partial_trace(rho, {0})
    assert np.allclose(out.matrix, ket("0").density().matrix)


def test_partial_trace_bell_is_mixed():
    out = partial_trace(bell_state().density(), {0})
    assert np.allclose(out.matrix, np.eye(2) / 2)


def test_partial_trace_recovers_factors():
    # oracle: direct matrix computation of the reduced state
    rng = spawn_rng(11)
    rho = random_density(1, rng)
    sigma = random_density(2, rng)
    joint = DensityOperator(np.kron(rho.matrix, sigma.matrix))
    first = partial_trace(joint, {0})
    assert np.allclose(first.matrix, rho.matrix, atol=1e-12)
    rest = partial_trace(joint, {1, 2})
    assert np.allclose(rest.matrix, sigma.matrix, atol=1e-12)
    # independent elementwise oracle for the kept block
    expect = np.zeros((2, 2), dtype=complex)
    t = joint.matrix.reshape(2, 4, 2, 4)
    for i in range(2):
        for j in range(2):
            expect[i, j] = sum(t[i, a, j, a] for a in range(4))
    assert np.allclose(first.matrix, expect, atol=1e-12)


def test_partial_trace_empty_keep_gives_trace():
    rho = random_density(2, spawn_rng(3))
    out = partial_trace(rho, set())
    assert out.matrix.shape == (1, 1)
    assert abs(out.matrix[0, 0] - 1.0) < 1e-12


def test_partial_trace_preserves_trace():
    rho = random_density(3, spawn_rng(4))
    out = partial_trace(rho, {0, 2})
    assert abs(np.trace(out.matrix) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------


def test_trace_distance_identical_states():
    rho = random_density(2, spawn_rng(5))
    assert trace_distance(rho, rho) == 0


def test_trace_distance_orthogonal_pure_states():
    assert abs(trace_distance(ket("0").density(), ket("1").density()) - 1.0) < 1e-12


def test_trace_distance_zero_vs_plus():
    # eigenvalue oracle: the 2x2 difference has eigenvalues +-sqrt(1/2)
    plus = PureState(np.array([1, 1]) / np.sqrt(2))
    d = trace_distance(ket("0").density(), plus.density())
    eigs = np.linalg.eigvalsh(ket("0").density().matrix - plus.density().matrix)
    assert abs(d - 0.5 * np.sum(np.abs(eigs))) < 1e-12
    assert abs(d - 0.7071067811865476) < 1e-9


def test_trace_distance_dimension_mismatch():
    for x, y in [
        (np.eye(2), np.eye(4)),
        (np.zeros((3, 2, 2)), np.zeros((4, 2, 2))),
        (np.zeros((3, 2, 2)), np.zeros((2, 2))),
        (np.zeros((3, 2, 4)), np.zeros((3, 2, 4))),
        (np.zeros(4), np.zeros(4)),
    ]:
        with pytest.raises(DimensionMismatchError):
            trace_distance(x, y)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_trace_distance_metric_axioms(seed):
    rng = spawn_rng(seed)
    rho, sigma, tau = (random_density(2, rng) for _ in range(3))
    d_rs = trace_distance(rho, sigma)
    assert d_rs >= 0
    assert abs(d_rs - trace_distance(sigma, rho)) < 1e-9
    assert d_rs <= trace_distance(rho, tau) + trace_distance(tau, sigma) + 1e-9
    assert d_rs <= 1 + 1e-9


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_trace_norm_svd_matches_eigh_for_hermitian(seed):
    # the eigenvalue path is allowed for Hermitian differences; it must
    # agree with the SVD route to 1e-10
    rng = spawn_rng(seed)
    diff = random_density(2, rng).matrix - random_density(2, rng).matrix
    via_eig = np.sum(np.abs(np.linalg.eigvalsh(diff)))
    assert abs(trace_norm(diff) - via_eig) < 1e-10


def _random_stack(rng, count: int, d: int, hermitian: bool) -> np.ndarray:
    g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    return g @ g.conj().transpose(0, 2, 1) / d if hermitian else g


@pytest.mark.parametrize("d", [2, 4, 16])
@pytest.mark.parametrize("hermitian", [True, False])
def test_stacked_trace_norms_equal_the_one_matrix_calls(d, hermitian):
    # the SVD gufunc runs the one-matrix routine on each matrix of a stack,
    # so every stacked value must equal its one-matrix call bit for bit
    rng = spawn_rng(d + 100 * hermitian)
    x = _random_stack(rng, 30, d, hermitian)
    y = _random_stack(rng, 30, d, hermitian)
    norms, dists = trace_norm(x), trace_distance(x, y)
    assert norms.shape == dists.shape == (30,)
    assert norms.tolist() == [trace_norm(m) for m in x]
    assert dists.tolist() == [trace_distance(a, b) for a, b in zip(x, y)]
    nested = trace_distance(x.reshape(5, 6, d, d), y.reshape(5, 6, d, d))
    assert nested.shape == (5, 6)
    assert nested.reshape(-1).tolist() == dists.tolist()
    assert type(trace_norm(x[0])) is float
    assert type(trace_distance(x[0], y[0])) is float


def test_trace_distance_orthogonal_block_lemma():
    # distance over orthogonal flags = sum of blockwise distances
    rng = spawn_rng(21)
    basis = haar_unitary(4, rng)
    lhs_x = np.zeros((16, 16), dtype=complex)
    lhs_y = np.zeros((16, 16), dtype=complex)
    rhs = 0.0
    for j in range(3):
        gx = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        gy = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x, y = gx @ gx.conj().T / 4, gy @ gy.conj().T / 4
        flag = np.outer(basis[:, j], basis[:, j].conj())
        lhs_x += np.kron(flag, x)
        lhs_y += np.kron(flag, y)
        rhs += trace_distance(x, y)
    assert abs(trace_distance(lhs_x, lhs_y) - rhs) < 1e-8


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_trace_distance_contractive_under_channels(seed):
    rng = spawn_rng(seed)
    rho, sigma = random_density(2, rng), random_density(2, rng)
    # random channel from a Stinespring isometry into one environment qubit
    u = haar_unitary(8, rng)
    v = u[:, :4]
    kraus = tuple(v[i::2, :] for i in range(2))  # environment = last qubit
    ch = KrausChannel(kraus)
    d_out = trace_distance(apply_channel(ch, rho), apply_channel(ch, sigma))
    assert d_out <= trace_distance(rho, sigma) + 1e-9


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _adjoint(columns) -> np.ndarray:
    """``V†`` for the isometry whose columns are given (one column as a
    vector)."""
    v = np.asarray(columns, dtype=complex)
    return (v.reshape(-1, 1) if v.ndim == 1 else v).conj().T


def test_measure_deterministic_outcome():
    rng = spawn_rng(1)
    accept = _adjoint(ket("1").amplitudes)  # outcome 1 is |1>
    for _ in range(20):
        outcome, post = measure_and_collapse(ket("0"), accept, rng)
        assert outcome == 0
        assert np.allclose(post.amplitudes, ket("0").amplitudes)


def test_measure_plus_state_frequencies():
    from qlease.games import wilson_interval

    rng = spawn_rng(2)
    plus = PureState(np.array([1, 1]) / np.sqrt(2))
    accept = _adjoint(ket("1").amplitudes)
    zeros = sum(
        1 for _ in range(10**4) if measure_projective(plus, accept, rng) == 0
    )
    lo, hi = wilson_interval(zeros, 10**4, 0.99)
    assert lo <= 0.5 <= hi


def test_measure_bell_first_qubit():
    # oracle: direct computation says outcomes are uniform and the
    # post-state is the matching product state
    rng = spawn_rng(3)
    accept = _adjoint(np.kron(ket("1").amplitudes.reshape(2, 1), np.eye(2)))  # first qubit 1
    counts = [0, 0]
    for _ in range(2000):
        outcome, post = measure_and_collapse(bell_state(), accept, rng)
        counts[outcome] += 1
        expected = ket("00") if outcome == 0 else ket("11")
        assert qmath.state_distance(post, expected) < 1e-9
    assert 850 < counts[0] < 1150


def test_measure_never_samples_negligible_outcome():
    rng = spawn_rng(5)
    accept = _adjoint(ket("1").amplitudes)
    for _ in range(200):
        outcome = measure_projective(ket("0"), accept, rng)
        assert outcome == 0


class _ForcedDraw:
    """Stands in for a generator whose one ``random()`` draw forces the
    first outcome (0.0) or the last (the largest double below 1) of a
    measurement whose outcomes all have nonzero probability."""

    def __init__(self, outcome: int):
        self.u = 0.0 if outcome == 0 else np.nextafter(1.0, 0.0)

    def random(self):
        return self.u


def _random_isometry(qubits: int, rng) -> np.ndarray:
    """``V``: the first columns of a Haar unitary, between 1 and d - 1 of
    them (the one column of a 1-dimensional register)."""
    d = 1 << qubits
    rank = int(rng.integers(1, d)) if d > 1 else 1
    return haar_unitary(d, rng)[:, :rank]


def _dense_pair(v: np.ndarray) -> list[np.ndarray]:
    """The reference measurement ``{I - V V†, V V†}`` as dense projectors."""
    p1 = v @ v.conj().T
    return [np.eye(len(p1)) - p1, p1]


@pytest.mark.parametrize("pure", [True, False])
@pytest.mark.parametrize(
    "positions,total",
    [
        ((0, 1), 4),  # contiguous, leading
        ((2, 3), 4),  # trailing
        ((0, 2), 4),  # non-contiguous
        ((3, 1), 4),  # reordered
        ((2,), 3),  # a single middle qubit
        ((1, 0, 2), 3),  # the whole register, permuted
    ],
)
def test_local_measurement_matches_dense_lift(pure, positions, total):
    # a party holding the register on ``positions`` of a product state is
    # measured on that register alone; this matches the measurement lifted
    # onto the joint register, and leaves the other register untouched
    rng = spawn_rng(70, len(positions), total, int(pure))
    size = len(positions)
    v = _random_isometry(size, rng)
    make = random_pure_state if pure else random_density
    own, other = make(size, rng), make(total - size, rng)
    rest = [i for i in range(total) if i not in positions]
    back = [(list(positions) + rest).index(i) for i in range(total)]

    def placed(a, b):  # a (x) b, its qubits in the order positions + rest
        t = np.kron(*(s.density().matrix if pure else s.matrix for s in (a, b)))
        d = 1 << total
        return t.reshape((2,) * (2 * total)).transpose(back + [total + i for i in back]).reshape(d, d)

    rho = placed(own, other)
    lifted = [embed_operator(p, positions, total) for p in _dense_pair(v)]
    p1, _ = accept_branch(own, v.conj().T)
    assert abs(p1 - np.trace(lifted[1] @ rho).real) <= qmath.ATOL
    for outcome, big in enumerate(lifted):
        got, post = measure_and_collapse(own, v.conj().T, _ForcedDraw(outcome))
        assert got == outcome
        m = big @ rho @ big
        expected = m / np.trace(m).real
        assert isinstance(post, PureState if pure else DensityOperator)
        assert np.max(np.abs(placed(post, other) - expected)) < qmath.ATOL


def _state_with_acceptance(v: np.ndarray, a: float, rng) -> np.ndarray:
    """A unit vector whose weight in the range of ``v`` is ``a``."""
    pair = _dense_pair(v)
    parts = []
    for proj, w in zip(pair, (1.0 - a, a)):
        g = proj @ (rng.standard_normal(len(proj)) + 1j * rng.standard_normal(len(proj)))
        parts.append(np.sqrt(w) * g / np.linalg.norm(g))
    return parts[0] + parts[1]


#: Acceptances the reference comparison covers: random, exactly 0 and 1,
#: and within 1e-12 of each (below the cutoff: that outcome never occurs).
ACCEPTANCES = [None, 0.0, 1.0, 1e-13, 1.0 - 1e-13]


@pytest.mark.parametrize("qubits", range(1, 7))
@pytest.mark.parametrize("pure", [True, False])
def test_measurement_matches_the_dense_pair(qubits, pure):
    # outcome probabilities and post-states against {I - VV†, VV†} built
    # densely, on states whose acceptance is set exactly
    rng = spawn_rng(76, qubits, int(pure))
    for a in ACCEPTANCES:
        v = _random_isometry(qubits, rng)
        accept = v.conj().T
        weight = rng.random() if a is None else a
        vecs = [_state_with_acceptance(v, weight, rng) for _ in range(1 if pure else 3)]
        if pure:
            state = PureState(vecs[0])
            rho = state.density().matrix
        else:
            mix = rng.random(3)
            state = DensityOperator(sum(w * np.outer(x, x.conj()) for w, x in zip(mix / mix.sum(), vecs)))
            rho = state.matrix
        pair = _dense_pair(v)
        born = [np.trace(p @ rho).real for p in pair]
        p1, _ = accept_branch(state, accept)
        assert abs(p1 - born[1]) <= 1e-12 and abs(p1 - weight) <= 1e-12
        possible = [w >= qmath.NEGLIGIBLE for w in born]
        for forced in range(2):
            got, post = measure_and_collapse(state, accept, _ForcedDraw(forced))
            assert possible[got]
            if all(possible):
                assert got == forced
            m = pair[got] @ rho @ pair[got]
            expected = m / np.trace(m).real
            got_rho = post.density().matrix if pure else post.matrix
            assert np.max(np.abs(got_rho - expected)) < qmath.ATOL
            if pure:
                branch = pair[got] @ state.amplitudes
                assert np.max(np.abs(post.amplitudes - branch / np.linalg.norm(branch))) < qmath.ATOL


def _assert_density(m: np.ndarray) -> None:
    assert np.max(np.abs(m - m.conj().T)) <= qmath.ATOL
    assert abs(np.trace(m).real - 1.0) <= qmath.ATOL
    assert np.min(np.linalg.eigvalsh(m)) >= -qmath.ATOL


def _assert_outer_product(state: PureState) -> None:
    rho = state.density()
    _assert_density(rho.matrix)
    assert not rho.matrix.flags.writeable
    outer = np.outer(state.amplitudes, state.amplitudes.conj())
    assert rho.matrix.tobytes() == DensityOperator(outer).matrix.tobytes()


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 4), st.sampled_from(["pure", "rank-one", "mixed"]))
def test_post_states_are_density_operators(seed, total, kind):
    # PureState.density, the mixed post-state and the tensor product skip
    # the constructor's eigenvalue check; this is where that check is kept
    rng = spawn_rng(seed)
    if kind == "pure":
        state = random_pure_state(total, rng)
        _assert_outer_product(state)
    elif kind == "rank-one":
        state = random_pure_state(total, rng).density()
    else:
        state = random_density(total, rng, rank=int(rng.integers(1, (1 << total) + 1)))
    accept = _random_isometry(total, rng).conj().T
    for outcome in range(2):
        got, post = measure_and_collapse(state, accept, _ForcedDraw(outcome))
        assert got == outcome
        if kind == "pure":
            assert isinstance(post, PureState)
            _assert_outer_product(post)
            continue
        _assert_density(post.matrix)
        assert post.qubits == total
        assert not post.matrix.flags.writeable
        assert post.matrix.tobytes() == DensityOperator(post.matrix).matrix.tobytes()
        # the public constructor still rejects a negative eigenvalue
        w, v = np.linalg.eigh(post.matrix)
        w[-1] += w[0] + 0.01
        w[0] = -0.01
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator((v * w) @ v.conj().T)


def _measure_and_collapse_at_once(state, accept, rng):
    """The measurement as it was before it was split into
    :func:`measure_projective` and :func:`collapse`: one call that draws
    the outcome and builds its post-state, the reference for both."""
    if accept.ndim != 2 or accept.shape[1] != state.dim:
        raise DimensionMismatchError("measurement register does not match the state")
    p1, inner = accept_branch(state, accept)
    outcome = qmath.draw_outcome(p1, rng)
    if isinstance(state, PureState):
        branch = (inner.conj() @ accept).conj()
        if outcome == 0:
            branch = state.amplitudes - branch
        return outcome, PureState._trusted(branch / np.sqrt(np.vdot(branch, branch).real))
    v = accept.conj().T
    if outcome == 1:
        return outcome, DensityOperator._trusted(v @ (inner / p1) @ accept)
    q = np.eye(state.dim) - v @ accept
    m = q @ state.matrix @ q
    return outcome, DensityOperator._trusted(m / m.trace().real)


@functools.cache
def _scheme(params):
    from qlease import qas

    return qas.build_scheme(*params)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1, 1, 6), (2, 1, 6), (3, 3, 6)]),
    seeds,
    st.integers(0, 63),
    st.sampled_from(["pure", "mixed", "program"]),
)
def test_measure_then_collapse_is_the_single_call(params, seed, key, kind):
    # the same outcome, the same generator state afterwards, and the same
    # post-state bytes (a density branch as the Hermitian part of the
    # single call's) as drawing and collapsing in one call
    from qlease.copyprotect import protect
    from qlease.qas import adjoint_isometry

    scheme = _scheme(params)
    accept = adjoint_isometry(scheme, key)
    rng = spawn_rng(seed)
    n = scheme.total_qubits
    if kind == "pure":
        state = random_pure_state(n, rng)
    elif kind == "mixed":
        state = random_density(n, rng, rank=int(rng.integers(1, (1 << n) + 1)))
    else:  # a program, accepted with probability 1 at its own key
        state = protect(scheme, int(rng.integers(1 << scheme.key_bits))).state
    ours, theirs = spawn_rng(seed, 1), spawn_rng(seed, 1)
    got = measure_projective(state, accept, ours)
    expected, reference = _measure_and_collapse_at_once(state, accept, theirs)
    assert got == expected
    assert ours.bit_generator.state == theirs.bit_generator.state
    post = collapse(state, accept, got)
    if kind == "mixed":
        m = reference.matrix
        assert post.matrix.tobytes() == ((m + m.conj().T) / 2).tobytes()
    else:
        assert post.amplitudes.tobytes() == reference.amplitudes.tobytes()
    # the fused call: one branch for the outcome and the post-state
    fused = spawn_rng(seed, 1)
    outcome, fused_post = qmath.measure_and_collapse(state, accept, fused)
    assert outcome == got
    assert fused.bit_generator.state == ours.bit_generator.state
    if kind == "mixed":
        assert fused_post.matrix.tobytes() == post.matrix.tobytes()
    else:
        assert fused_post.amplitudes.tobytes() == post.amplitudes.tobytes()


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(2, 64), st.integers(1, 300))
def test_vecdot_norms_are_the_row_vdots(seed, d, n):
    # collapse_pure's norms, all rows in one np.vecdot, against np.vdot of
    # each row on its own, bit for bit
    rng = spawn_rng(seed)
    rows = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    expected = np.array([np.vdot(row, row).real for row in rows])
    assert np.vecdot(rows, rows).real.tobytes() == expected.tobytes()


@pytest.mark.parametrize("outcome", [1, 0])
@pytest.mark.parametrize("p", [1e-7, 1e-8, 1e-10])
def test_collapse_keeps_small_density_branches_states(outcome, p):
    # rank-2 states whose branch for ``outcome`` has weight p, at 1,1,14
    # and key 77: dividing the branch by p rounds each entry on its own,
    # about d * eps / p; before the Hermitian part was taken, 9/50 accept
    # branches failed DensityOperator at p = 1e-8 and 50/50 at p = 1e-10
    from qlease.qas import adjoint_isometry

    accept = adjoint_isometry(_scheme((1, 1, 14)), 77)
    a = accept.conj().T
    rng = spawn_rng(32)
    bound = 10 * 4 * np.finfo(float).eps / p  # d = 4, ten times the rounding
    for _ in range(50):
        vecs, kept = [], []
        for _ in range(2):
            accepted = a @ random_pure_state(1, rng).amplitudes
            rejected = random_pure_state(2, rng).amplitudes
            rejected = rejected - a @ (accept @ rejected)
            rejected /= np.linalg.norm(rejected)
            w = p if outcome == 1 else 1 - p
            vecs.append(np.sqrt(1 - w) * rejected + np.sqrt(w) * accepted)
            kept.append(accepted if outcome == 1 else rejected)
        mix = rng.random()
        state = DensityOperator(sum(c * np.outer(x, x.conj()) for c, x in zip((mix, 1 - mix), vecs)))
        got, post = measure_and_collapse(state, accept, _ForcedDraw(outcome))
        assert got == outcome
        assert post.matrix.tobytes() == DensityOperator(post.matrix).matrix.tobytes()
        expected = sum(c * np.outer(x, x.conj()) for c, x in zip((mix, 1 - mix), kept))
        assert trace_distance(post, expected) < bound


def _reference_probs(p1: float) -> np.ndarray:
    """The sampling probabilities as an array expression: ``[1 - p1, p1]``,
    entries below 1e-12 set to 0, divided by their numpy sum."""
    probs = np.array([1.0 - p1, p1])
    probs = np.where(probs < 1e-12, 0.0, probs)
    return probs / probs.sum()


def test_draw_is_generator_choice():
    # pure and mixed registers of 1-4 qubits, acceptances at and near the
    # 1e-12 cutoff on either side; 10^4 draws on twin generators
    rng = spawn_rng(74)
    cases = []
    for qubits in range(1, 5):
        for tiny in (0.0, 1e-13, 5e-12, None):
            for a in (None,) if tiny is None else (tiny, 1.0 - tiny):
                v = _random_isometry(qubits, rng)
                weight = rng.random() if a is None else a
                vecs = [_state_with_acceptance(v, weight, rng) for _ in range(3)]
                mix = rng.random(3)
                rho = sum(w * np.outer(x, x.conj()) for w, x in zip(mix / mix.sum(), vecs))
                cases += [(PureState(vecs[0]), v.conj().T), (DensityOperator(rho), v.conj().T)]
    draws = 0
    for case, (state, accept) in enumerate(cases):
        probs = _reference_probs(accept_branch(state, accept)[0])
        for seed in range(180):
            ours, theirs = np.random.default_rng([case, seed]), np.random.default_rng([case, seed])
            got = measure_projective(state, accept, ours)
            assert got == theirs.choice(2, p=probs)
            assert probs[got] > 0
            assert ours.random() == theirs.random()
            draws += 1
    assert draws >= 10**4


def test_draw_breaks_ties_as_choice():
    # outcome 0's share exactly at the draw: choice's searchsorted puts
    # the draw in outcome 1, one ulp more share puts it in outcome 0
    u = np.random.default_rng(0).random()
    assert 0.5 <= u < 1.0  # so 1 - s is exact for a share s at or above u
    for share, outcome in ((u, 1), (float(np.nextafter(u, 1.0)), 0)):
        p1 = 1.0 - share
        assert np.random.default_rng(0).choice(2, p=_reference_probs(p1)) == outcome
        assert qmath.draw_outcome(p1, np.random.default_rng(0)) == outcome


def test_elementwise_decision_is_draw_outcome():
    # one rule for one draw and for a stack: at and around the 1e-12
    # cutoff, at the edges, at random weights and at an exact tie, the
    # elementwise outcomes at a generator's uniforms are draw_outcome's
    neg = qmath.NEGLIGIBLE
    u = np.random.default_rng(0).random()
    weights = [0.0, neg / 2, neg, 1 - neg, 1 - neg / 2, 1 - 1e-13, 1.0, -1e-17, 1 + 2e-16, 1.0 - u]
    weights += list(np.random.default_rng(1).random(20))
    with np.errstate(all="raise"):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            one_by_one = [qmath.draw_outcome(p1, rng) for p1 in weights]
            draws = np.random.default_rng(seed).random(len(weights))
            stacked = qmath.outcome_at(np.array(weights), draws)
            assert stacked.dtype == bool
            assert stacked.tolist() == [bool(b) for b in one_by_one]
            assert [qmath.outcome_at(p1, u) for p1, u in zip(weights, draws.tolist())] == stacked.tolist()


def test_fused_measurement_checks_the_register():
    with pytest.raises(DimensionMismatchError):
        qmath.measure_and_collapse(bell_state(), np.eye(2, 8, dtype=complex), spawn_rng(0))


@pytest.mark.parametrize("qubits", [1, 3, 6])
def test_pure_post_state_is_trusted_and_exact(qubits):
    # the pure post-state skips the constructor's norm check: its bytes are
    # what the constructor keeps, read-only, and its norm is 1 to 1e-14
    rng = spawn_rng(75, qubits)
    accept = _random_isometry(qubits, rng).conj().T
    for _ in range(20):
        state = random_pure_state(qubits, rng)
        for outcome in range(2):
            got, post = measure_and_collapse(state, accept, _ForcedDraw(outcome))
            assert got == outcome
            assert isinstance(post, PureState) and post.qubits == qubits
            assert not post.amplitudes.flags.writeable
            assert post.amplitudes.tobytes() == PureState(post.amplitudes).amplitudes.tobytes()
            assert abs(np.linalg.norm(post.amplitudes) - 1.0) <= 1e-14


def test_projective_measurement_shape_mismatches():
    rng = spawn_rng(73)
    one_qubit = _adjoint(ket("1").amplitudes)
    with pytest.raises(DimensionMismatchError):
        measure_projective(bell_state(), one_qubit, rng)  # one qubit against two
    with pytest.raises(DimensionMismatchError):
        measure_projective(bell_state().density(), one_qubit, rng)
    with pytest.raises(DimensionMismatchError):
        measure_projective(ket("0"), ket("1").amplitudes, rng)  # a vector, not V†


def test_projective_measurement_is_read_only():
    # honest evaluation hands out views of one cached stack per design
    from qlease import qas

    scheme = qas.build_scheme(1, 1, 6)
    accept = qas.adjoint_isometry(scheme, 5)
    assert accept.base is not None  # a view, not a copy
    with pytest.raises(ValueError):
        accept[0, 0] = 0.0


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def test_apply_channel_identity():
    rho = random_density(2, spawn_rng(8))
    out = apply_channel(KrausChannel((np.eye(4),)), rho)
    assert np.allclose(out.matrix, rho.matrix)


def test_apply_channel_depolarizing():
    # full depolarization via uniform Paulis sends everything to I/d
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    ]
    ch = KrausChannel(tuple(p / 2 for p in paulis))
    out = apply_channel(ch, ket("0").density())
    assert np.allclose(out.matrix, np.eye(2) / 2)


def test_single_kraus_channel_matches_isometry():
    rng = spawn_rng(9)
    v = haar_unitary(8, rng)[:, :4]
    rho = random_density(2, rng)
    via_channel = apply_channel(KrausChannel((v,)), rho)
    assert np.allclose(via_channel.matrix, v @ rho.matrix @ v.conj().T, atol=1e-12)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def test_embed_operator_contiguous_matches_kron():
    rng = spawn_rng(10)
    op = haar_unitary(2, rng)
    assert np.allclose(embed_operator(op, [0], 2), np.kron(op, np.eye(2)))
    assert np.allclose(embed_operator(op, [1], 2), np.kron(np.eye(2), op))


def test_embed_operator_swapped_positions():
    # CNOT with control on qubit 1 and target on qubit 0
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], float)
    lifted = embed_operator(cnot, [1, 0], 2)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], float)
    assert np.allclose(lifted, swap @ cnot @ swap)


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------


def test_spawn_rng_deterministic_and_split():
    a = spawn_rng(7, 1).random(4)
    b = spawn_rng(7, 1).random(4)
    c = spawn_rng(7, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200]
)
def test_spawn_rngs_equal_spawn_rng(seed):
    block = qmath.SPAWN_BLOCK
    trials = 2 * block + 3  # the last block is short
    checked = {0, block - 1, block, block + 1, trials - 1}
    count = 0
    for i, rng in enumerate(qmath.spawn_rngs(seed, trials)):
        count += 1
        if i in checked:
            assert rng.bit_generator.state == spawn_rng(seed, i).bit_generator.state
    assert count == trials


@pytest.mark.parametrize("seed", [0, 2**32, 2**200])
@pytest.mark.parametrize("start,stop", [(2**32 - 2, 2**32 + 2), (2**64 - 3, 2**64)])
def test_trial_states_of_indices_past_one_word(seed, start, stop):
    states = qmath._trial_states(seed, start, stop)
    for row, i in zip(states, range(start, stop), strict=True):
        reference = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        assert np.array_equal(row, reference.generate_state(4, np.uint64))


def test_spawn_rngs_gives_each_trial_its_own_generator():
    rngs = list(qmath.spawn_rngs(3, qmath.SPAWN_BLOCK + 1))
    assert len({id(rng) for rng in rngs}) == len(rngs)
    assert len({id(rng.bit_generator) for rng in rngs}) == len(rngs)
    with pytest.raises(TypeError):
        rngs[0].spawn(1)  # the seed stub is not spawnable


def test_spawn_rngs_memory_is_bounded_by_the_block():
    def peak(trials):
        tracemalloc.start()
        try:
            for _ in qmath.spawn_rngs(5, trials):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # the first run registers the seed stub
    small, large = peak(2_000), peak(20_000)
    assert abs(large - small) <= 1024
    assert large < 256 * qmath.SPAWN_BLOCK
