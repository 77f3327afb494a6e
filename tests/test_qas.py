"""Tests for the trap-code authentication scheme."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlease import designs, qas
from qlease.designs import clifford_design, irreducible_poly
from qlease.qmath import (
    ATOL,
    DensityOperator,
    DimensionMismatchError,
    NEGLIGIBLE,
    PureState,
    QubitCapError,
    maximally_mixed,
    random_density,
    random_pure_state,
    spawn_rng,
    state_distance,
    zero_state,
)

from measurement_reference import accept_branch


@pytest.fixture(scope="module")
def scheme():
    return qas.build_scheme(1, 1, 14)


def _trap_zero_columns(scheme, key):
    """Reference ``A_key``: the columns of the key's element at which the
    traps read zero, every 2^t-th since the message is most significant."""
    return scheme.design.element(scheme.key_index(key))[:, :: 1 << scheme.trap_qubits]


def test_build_scheme_layout(scheme):
    assert scheme.total_qubits == 2
    assert scheme.design.cardinality == 11520
    assert scheme.design is clifford_design(2)
    assert scheme.message_dim == 2


def test_epsilon_bookkeeping(scheme):
    # epsilon' for 2^14 keys onto 11520 indices, plus the design term
    assert scheme.key_map.epsilon_prime <= Fraction(11520, 4 * (1 << 14))
    assert scheme.key_map.epsilon_prime == Fraction(247, 1440)
    assert abs(scheme.epsilon - (2 ** (5 / 3) + 247 / 1440)) < 1e-12


def test_build_scheme_parameter_validation():
    with pytest.raises(ValueError):
        qas.build_scheme(0, 1, 4)
    with pytest.raises(ValueError):
        qas.build_scheme(1, 0, 4)
    with pytest.raises(ValueError):
        qas.build_scheme(1, 1, 0)
    # refused before any design is built
    with pytest.raises(QubitCapError):
        qas.build_scheme(7, 6, 4)


@pytest.mark.parametrize("params", [(1, 1, 6), (2, 1, 6)], ids=str)
def test_a_scheme_is_its_m_t_k(params):
    # its design and key map follow from (m, t, k), so two schemes of one
    # shape are equal even when a cleared design cache built each its own
    scheme = qas.QasScheme(*params)
    assert scheme == qas.build_scheme(*params) and hash(scheme) == hash(qas.build_scheme(*params))
    assert [f.name for f in fields(qas.QasScheme) if f.init] == ["message_qubits", "trap_qubits", "key_bits"]
    designs.clifford_design.cache_clear()
    again = qas.QasScheme(*params)
    assert again.design is not scheme.design
    assert again == scheme and hash(again) == hash(scheme)
    assert again.key_map == scheme.key_map


@pytest.mark.parametrize(
    "params,error",
    [((0, 1, 6), ValueError), ((True, 1, 6), ValueError), ((1, 1, 0), ValueError), ((7, 6, 1), QubitCapError)],
    ids=["zero-message", "bool-message", "zero-key", "over-the-cap"],
)
def test_a_scheme_refuses_what_build_scheme_refuses(params, error):
    for build in (qas.QasScheme, qas.build_scheme):
        with pytest.raises(error, match="positive integers" if error is ValueError else "exceeds the cap"):
            build(*params)
    # a given design on 3 qubits once made 1,1,6 a scheme whose programs had 8 entries
    with pytest.raises(TypeError):
        qas.QasScheme(1, 1, 6, designs.clifford_design(3))


@pytest.mark.parametrize("isometry", [qas.auth_isometry, qas.adjoint_isometry])
@pytest.mark.parametrize("key", [-1, 1 << 14])
def test_isometries_refuse_keys_outside_the_key_space(scheme, isometry, key):
    with pytest.raises(ValueError):
        isometry(scheme, key)


@pytest.mark.parametrize("params", [(1, 1, 14), (3, 3, 6)], ids=str)
def test_key_map_on_an_array_is_the_one_key_map(params):
    # 1,1,14 reduces keys mod |B|; at 3,3,6 |B| exceeds int64 and every key is its index
    scheme = qas.build_scheme(*params)
    keys = spawn_rng(50).integers(1 << scheme.key_bits, size=200)
    keys[:2] = 0, (1 << scheme.key_bits) - 1
    indices = scheme.key_index(keys)
    assert indices.tolist() == [scheme.key_index(int(key)) for key in keys]
    for key in (-1, 1 << scheme.key_bits):
        with pytest.raises(ValueError):
            scheme.key_index(key)
        with pytest.raises(ValueError):
            scheme.key_index(np.array([0, key]))


def test_auth_isometry_property(scheme):
    rng = spawn_rng(1)
    for key in rng.integers(1 << 14, size=100):
        a = qas.auth_isometry(scheme, int(key))
        assert np.max(np.abs(a.conj().T @ a - np.eye(2))) < 1e-9


def test_auth_pure_in_pure_out(scheme):
    rng = spawn_rng(2)
    out = qas.auth(scheme, 7, random_pure_state(1, rng))
    assert isinstance(out, PureState)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9


@pytest.mark.parametrize("params", [(1, 1, 14), (2, 1, 6), (3, 3, 6)], ids=str)
def test_auth_pure_state_is_the_encoding_product(params):
    # A psi with A the trap-zero columns of the key's element: a unit
    # vector, bit for bit the product with a contiguous copy of the columns
    scheme = qas.build_scheme(*params)
    rng = spawn_rng(7)
    for key in rng.integers(1 << scheme.key_bits, size=5):
        psi = random_pure_state(scheme.message_qubits, rng)
        out = qas.auth(scheme, int(key), psi)
        expected = PureState(np.array(_trap_zero_columns(scheme, int(key))) @ psi.amplitudes)
        assert out.qubits == scheme.total_qubits
        assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9


@pytest.mark.parametrize("params", [(1, 1, 14), (2, 1, 6), (3, 3, 6)], ids=str)
def test_auth_density_is_the_encoding_conjugation(params):
    scheme = qas.build_scheme(*params)
    rng = spawn_rng(6)
    for key in rng.integers(1 << scheme.key_bits, size=5):
        rho = random_density(scheme.message_qubits, rng)
        out = qas.auth(scheme, int(key), rho)
        a = np.array(_trap_zero_columns(scheme, int(key)))
        assert isinstance(out, DensityOperator)
        assert out.matrix.tobytes() == (a @ rho.matrix @ a.conj().T).tobytes()


def test_auth_dimension_mismatch(scheme):
    with pytest.raises(DimensionMismatchError):
        qas.auth(scheme, 7, zero_state(2))


def test_auth_rejects_non_state(scheme):
    with pytest.raises(TypeError):
        qas.auth(scheme, 7, np.array([1.0, 0.0]))


def test_correctness_round_trip(scheme):
    rng = spawn_rng(3)
    for _ in range(200):
        key = int(rng.integers(1 << 14))
        state = random_pure_state(1, rng) if rng.random() < 0.5 else random_density(1, rng)
        out = qas.verify(scheme, key, qas.auth(scheme, key, state))
        assert abs(out.accept_probability - 1.0) < 1e-9
        assert state_distance(out.message_state, state) < 1e-9


def test_verify_orthogonal_complement(scheme):
    # a state orthogonal to the image of A_k never accepts
    a = qas.auth_isometry(scheme, 5)
    proj = np.eye(4) - a @ a.conj().T
    vec = proj @ np.array([1.0, 0.3, -0.2, 0.7j])
    vec /= np.linalg.norm(vec)
    out = qas.verify(scheme, 5, PureState(vec))
    assert out.accept_probability < 1e-12
    assert np.allclose(out.message_state.matrix, np.eye(2) / 2)


def test_verify_maximally_mixed(scheme):
    out = qas.verify(scheme, 123, maximally_mixed(2))
    assert abs(out.accept_probability - 0.5) < 1e-12  # 2^-t, t=1


def test_verify_trace_preserving(scheme):
    rng = spawn_rng(4)
    a = qas.auth_isometry(scheme, 9)
    for _ in range(10):
        rho = random_density(2, rng)
        p, branch = accept_branch(rho, qas.adjoint_isometry(scheme, 9))
        reject_mass = np.trace((np.eye(4) - a @ a.conj().T) @ rho.matrix).real
        assert abs(p + reject_mass - 1.0) < 1e-9
        assert abs(np.trace(branch).real - p) < 1e-12
        assert 0.0 <= p <= 1.0 + 1e-12


def test_accept_branch_matches_probability(scheme):
    # two code paths: the adjoint's accept branch vs conjugation by the
    # encoding isometry
    rng = spawn_rng(5)
    for _ in range(25):
        rho = random_density(2, rng)
        key = int(rng.integers(1 << 14))
        a = qas.auth_isometry(scheme, key)
        expected = np.trace(a.conj().T @ rho.matrix @ a).real
        assert abs(qas.verify(scheme, key, rho).accept_probability - expected) < 1e-10
        assert abs(qas.accept_probability(scheme, key, rho) - expected) < 1e-10


def test_accept_branch_on_authenticated(scheme):
    rng = spawn_rng(6)
    rho = random_density(1, rng)
    out = qas.verify(scheme, 3, qas.auth(scheme, 3, rho))
    assert abs(out.accept_probability - 1.0) < 1e-9
    assert np.allclose(out.message_state.matrix, rho.matrix, atol=1e-9)


@pytest.mark.parametrize("p", [1e-7, 1e-8, 1e-10])
def test_verify_decodes_small_pure_branches_as_states(scheme, p):
    # a pure state accepted with probability p decodes as outer(b, conj(b)) / p,
    # which is exactly Hermitian; A† |psi><psi| A / p rounds each entry on
    # its own, and at p <= 1e-8 failed the Hermiticity check
    a = qas.auth_isometry(scheme, 77)
    rng = spawn_rng(31)
    for _ in range(50):
        message = random_pure_state(1, rng)
        rejected = random_pure_state(2, rng).amplitudes
        rejected = rejected - a @ (a.conj().T @ rejected)
        rejected /= np.linalg.norm(rejected)
        state = PureState(np.sqrt(1 - p) * rejected + np.sqrt(p) * (a @ message.amplitudes))
        out = qas.verify(scheme, 77, state)
        assert out.accept_probability == pytest.approx(p, rel=1e-6)
        decoded = DensityOperator(out.message_state.matrix)
        assert state_distance(decoded, message) < 1e-6


@pytest.mark.parametrize("p", [1e-7, 1e-8, 1e-10, 1e-11])
def test_verify_decodes_small_density_branches_as_states(scheme, p):
    # a rank-2 state accepted with probability p decodes as the Hermitian
    # part (b + b†) / (2p) of b = A† rho A; b / p alone rounds each entry
    # by about d * eps / p, and failed the Hermiticity check at p <= 1e-8
    a = qas.auth_isometry(scheme, 77)
    rng = spawn_rng(33)
    bound = 10 * 4 * np.finfo(float).eps / p  # d = 4, ten times the rounding
    for _ in range(50):
        vecs, messages = [], []
        for _ in range(2):
            message = random_pure_state(1, rng).amplitudes
            rejected = random_pure_state(2, rng).amplitudes
            rejected = rejected - a @ (a.conj().T @ rejected)
            rejected /= np.linalg.norm(rejected)
            vecs.append(np.sqrt(1 - p) * rejected + np.sqrt(p) * (a @ message))
            messages.append(message)
        mix = rng.random()
        weights = (mix, 1 - mix)
        state = DensityOperator(sum(c * np.outer(v, v.conj()) for c, v in zip(weights, vecs)))
        out = qas.verify(scheme, 77, state)
        assert out.accept_probability == pytest.approx(p, rel=1e-6)
        decoded = DensityOperator(out.message_state.matrix)
        expected = sum(c * np.outer(m, m.conj()) for c, m in zip(weights, messages))
        assert state_distance(decoded, DensityOperator(expected)) < bound


def test_sampled_verify_deterministic(scheme):
    rng_state = spawn_rng(7)
    rho = random_density(2, rng_state)
    a = qas.verify(scheme, 1, rho, spawn_rng(8))
    b = qas.verify(scheme, 1, rho, spawn_rng(8))
    assert a.accepted == b.accepted
    assert a.accept_probability == b.accept_probability


def test_sampled_verify_branches(scheme):
    rng = spawn_rng(9)
    rho = maximally_mixed(2)
    accepts = sum(qas.verify(scheme, 2, rho, rng).accepted for _ in range(2000))
    assert 850 < accepts < 1150  # accept probability is exactly 1/2


@pytest.mark.parametrize("params", [(1, 1, 14), (1, 2, 14), (2, 1, 6)], ids=str)
def test_trusted_results_pass_the_public_checks(params):
    # auth_isometry, auth and verify build their results without
    # re-validation; each must be a contiguous read-only array that passes
    # the public checks at ATOL (the gram check A†A = I for the isometry,
    # the constructors' norm, Hermiticity, trace and eigenvalue checks for
    # states, which keep it byte for byte)
    scheme = qas.build_scheme(*params)
    rng = spawn_rng(21)
    key = int(rng.integers(1 << scheme.key_bits))
    iso = qas.auth_isometry(scheme, key)
    encoded = qas.auth(scheme, key, random_density(scheme.message_qubits, rng))
    u = scheme.design.element(scheme.key_index(key))
    partial = maximally_mixed(scheme.total_qubits)  # accepted with probability 2^-t
    rejected = PureState(u[:, 1])  # a trap qubit reads 1
    encoded_pure = qas.auth(scheme, key, random_pure_state(scheme.message_qubits, rng))
    unsampled = [qas.verify(scheme, key, s) for s in (encoded, partial, rejected, encoded_pure)]
    assert [o.accepted for o in unsampled] == [None] * 4
    assert unsampled[2].accept_probability < 1e-12
    sampled = [qas.verify(scheme, key, partial, spawn_rng(21, i)) for i in range(40)]
    assert {o.accepted for o in sampled} == {True, False}
    assert iso.flags.c_contiguous and not iso.flags.writeable
    assert np.max(np.abs(iso.conj().T @ iso - np.eye(scheme.message_dim))) <= ATOL
    assert iso.tobytes() == np.array(_trap_zero_columns(scheme, key)).tobytes()
    assert encoded_pure.amplitudes.tobytes() == PureState(encoded_pure.amplitudes).amplitudes.tobytes()
    assert not encoded_pure.amplitudes.flags.writeable
    results = [encoded.matrix] + [o.message_state.matrix for o in unsampled + sampled]
    for mat in results:
        assert mat.flags.c_contiguous and not mat.flags.writeable
        assert mat.tobytes() == DensityOperator(mat).matrix.tobytes()


def _per_pair_round_trip(scheme, auth_key, verify_key, state):
    # one round trip by the per-pair arithmetic: a @ v or a @ rho @ a†,
    # then b = A† e or A† e A, p = vdot(b, b) or Tr b clipped to [0, 1],
    # decoded as outer(b, conj(b)) / p or (b + b†) / (2p), or I / d where
    # p is below NEGLIGIBLE
    a, adj = qas.auth_isometry(scheme, auth_key), qas.adjoint_isometry(scheme, verify_key)
    if isinstance(state, PureState):
        b = adj @ (a @ state.amplitudes)
        p = min(max(float(np.vdot(b, b).real), 0.0), 1.0)
        decoded = np.outer(b, b.conj()) / p if p >= NEGLIGIBLE else None
    else:
        b = adj @ (a @ state.matrix @ a.conj().T) @ adj.conj().T
        p = min(max(float(b.trace().real), 0.0), 1.0)
        decoded = (b + b.conj().T) / (2 * p) if p >= NEGLIGIBLE else None
    d = scheme.message_dim
    return p, np.eye(d) / d if decoded is None else decoded


@pytest.mark.parametrize("maker", [random_pure_state, random_density], ids=["pure", "density"])
@pytest.mark.parametrize("params", [(1, 1, 14), (1, 2, 14), (3, 3, 6)], ids=str)
def test_round_trips_are_the_per_pair_arithmetic(params, maker):
    # 40 keys broadcast as (40, 1) against 5 messages, and the first 5 keys
    # zipped with them, verified with the same keys and with the next key
    # (at 1,1,14 and 1,2,14 some of those accept with probability exactly 0)
    scheme = qas.build_scheme(*params)
    rng = spawn_rng(27, *params)
    keys = rng.integers(1 << scheme.key_bits, size=40)
    states = [maker(scheme.message_qubits, rng) for _ in range(5)]
    zeros = 0
    for verify_keys in (keys, (keys + 1) % (1 << scheme.key_bits)):
        with np.errstate(all="raise"):
            broadcast = qas.round_trips(scheme, keys[:, None], verify_keys[:, None], states)
            zipped = qas.round_trips(scheme, keys[:5], verify_keys[:5], states)
        assert broadcast[0].shape == (40, 5) and zipped[0].shape == (5,)
        cases = [(broadcast, (i, j), i, j) for i in range(40) for j in range(5)]
        cases += [(zipped, (j,), j, j) for j in range(5)]
        for (accept, decoded), at, i, j in cases:
            p, expected = _per_pair_round_trip(scheme, int(keys[i]), int(verify_keys[i]), states[j])
            assert accept[at] == p
            assert np.array_equal(decoded[at], expected)
            zeros += p == 0.0
    assert zeros > 0 or params == (3, 3, 6)


@pytest.mark.parametrize("params", [(1, 1, 6), (1, 2, 6), (2, 1, 6), (3, 3, 6), (1, 1, 14)], ids=str)
def test_stacked_acceptances_are_accept_branch(params):
    # the acceptance of every (register, key) pair, pure programs and states,
    # the maximally mixed ancilla and random densities in one call with
    # repeated keys, is the reference accept_branch's p1 bit for bit, unclipped
    from qlease.copyprotect import protect

    scheme = qas.build_scheme(*params)
    rng = spawn_rng(29, *params)
    n, keyspace = scheme.total_qubits, 1 << scheme.key_bits
    registers = [protect(scheme, int(x)).state for x in rng.integers(keyspace, size=4)]
    registers += [random_pure_state(n, rng), maximally_mixed(n), random_density(n, rng)]
    which = rng.integers(len(registers), size=80)
    keys = rng.integers(keyspace, size=80)
    keys[:10] = keys[10:20]
    with np.errstate(all="raise"):
        got = qas.acceptances(scheme, keys, [registers[r] for r in which])
        expected = [accept_branch(registers[r], qas.adjoint_isometry(scheme, int(x)))[0] for r, x in zip(which, keys)]
        one_pair = [qas.accept_probability(scheme, int(x), registers[r]) for r, x in zip(which, keys)]
    assert np.array_equal(got, expected) and np.array_equal(one_pair, expected)
    with pytest.raises(TypeError):
        qas.acceptances(scheme, [1], [None])
    with pytest.raises(DimensionMismatchError):
        qas.acceptances(scheme, [1], [zero_state(n + 1)])


@pytest.mark.parametrize("params", [(1, 1, 6), (3, 3, 6), (1, 1, 14), (1, 2, 14)], ids=str)
def test_acceptances_take_one_register_per_pair(monkeypatch, params):
    # blocks of pure registers only, densities only and both, each register
    # object repeated across pairs and beside an equal copy of itself, with
    # repeated keys and keys that select one design index: the acceptance of
    # every pair is the reference p1 bit for bit, and each distinct object
    # is checked once
    scheme = qas.build_scheme(*params)
    rng = spawn_rng(31, *params)
    n, keyspace = scheme.total_qubits, 1 << scheme.key_bits
    pure = [random_pure_state(n, rng) for _ in range(3)]
    pure.append(PureState(pure[0].amplitudes))
    dense = [random_density(n, rng), maximally_mixed(n)]
    dense.append(DensityOperator(dense[0].matrix))
    checked = []
    real = qas.register_array
    monkeypatch.setattr(qas, "register_array", lambda s, dim: checked.append(s) or real(s, dim))
    for pool in (pure, dense, pure + dense):
        registers = [pool[i] for i in rng.integers(len(pool), size=60)]
        keys = rng.integers(keyspace, size=60)
        keys[30:] = keys[:30]
        card = scheme.design.cardinality
        if card < keyspace:  # x and x + |B| select one design index
            keys[:5] = card + rng.integers(keyspace - card, size=5)
            keys[5:10] = keys[:5] - card
        checked.clear()
        with np.errstate(all="raise"):
            got = qas.acceptances(scheme, keys, registers)
        expected = [accept_branch(s, qas.adjoint_isometry(scheme, int(x)))[0] for s, x in zip(registers, keys)]
        assert np.array_equal(got, expected)
        assert sorted(map(id, checked)) == sorted({id(s) for s in registers})


def test_indexed_keys_are_gathered_once(monkeypatch):
    # one column-block read per distinct key on an indexed design, and one
    # gather for both sides of a round trip that verifies with the keys it used
    scheme = qas.build_scheme(1, 2, 14)
    gathered = []
    real = scheme.design._columns
    monkeypatch.setattr(scheme.design, "_columns", lambda i, step: gathered.append(i) or real(i, step))
    keys = np.array([5, 9, 5, 5, 9, 11])
    same = qas.round_trips(scheme, keys, keys, [zero_state(1)])
    assert sorted(gathered) == [5, 9, 11]
    gathered.clear()
    copied = qas.round_trips(scheme, keys, keys.copy(), [zero_state(1)])
    assert sorted(gathered) == [5, 5, 9, 9, 11, 11]
    assert all(np.array_equal(a, b) for a, b in zip(same, copied))


@pytest.mark.parametrize("params", [(1, 1, 6), (2, 1, 6), (3, 3, 6)], ids=str)
def test_empty_key_arrays_give_empty_stacks(params):
    # on either design kind: no key, no block, and the stacks keep their shape
    scheme = qas.build_scheme(*params)
    d, md = scheme.total_dim, scheme.message_dim
    none = np.array([], dtype=np.int64)
    adj = qas.adjoint_isometry(scheme, none)
    assert adj.shape == (0, md, d) and adj.dtype == complex
    assert qas.acceptances(scheme, none, np.empty((0, d), dtype=complex)).shape == (0,)
    p, decoded = qas.round_trips(scheme, none, none, [zero_state(scheme.message_qubits)])
    assert p.shape == (0,) and decoded.shape == (0, md, md)


@pytest.mark.parametrize("params", [(1, 1, 6), (2, 1, 6), (1, 2, 6), (3, 3, 6)], ids=str)
def test_every_key_reads_its_columns_through_one_route(params):
    # the adjoint is the isometry's conjugate transpose bit for bit, and a
    # stacked read holds the one-key array in each row, on either design kind
    scheme = qas.build_scheme(*params)
    keys = spawn_rng(40).integers(1 << scheme.key_bits, size=(2, 3))
    stacked = qas._conj_columns(scheme, keys)
    assert stacked.shape == keys.shape + (scheme.total_dim, scheme.message_dim)
    for key, row in zip(keys.ravel().tolist(), stacked.reshape(-1, scheme.total_dim, scheme.message_dim)):
        one = qas._conj_columns(scheme, key)
        assert one.flags.c_contiguous and row.tobytes() == one.tobytes()
        assert qas.adjoint_isometry(scheme, key).tobytes() == qas.auth_isometry(scheme, key).conj().T.tobytes()
        # a numpy key too, where |B| exceeds int64 (6 qubits)
        assert qas.adjoint_isometry(scheme, np.int64(key)).tobytes() == qas.adjoint_isometry(scheme, key).tobytes()
    if scheme.design is clifford_design(2):
        # read-only views of one stack across calls and schemes: key 11523
        # reaches index 3 under 2^14 keys
        stack = scheme.design.conj_columns(slice(None), 2).base
        views = [qas.adjoint_isometry(scheme, 3), qas.adjoint_isometry(qas.build_scheme(1, 1, 14), 11523)]
        views.append(qas.adjoint_isometry(scheme, 3))
        for view in views:
            assert view.base is stack and not view.flags.writeable
            assert np.shares_memory(view, views[0])


def test_shared_density_register_is_not_copied_per_pair():
    # 256 pairs on one 64 x 64 register: 256 copies of it would take 16 MiB
    scheme = qas.build_scheme(3, 3, 6)
    keys = spawn_rng(30).integers(1 << scheme.key_bits, size=256)
    rho = maximally_mixed(scheme.total_qubits)
    registers = [rho] * len(keys)
    expected = qas.acceptances(scheme, keys, registers)
    tracemalloc.start()
    try:
        got = qas.acceptances(scheme, keys, registers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    # the register is taken against its 63 distinct keys, not 256 pairs
    assert peak < 2 << 20


def test_round_trips_take_one_kind_of_message(scheme):
    rng = spawn_rng(28)
    mixed = [random_pure_state(1, rng), random_density(1, rng)]
    with pytest.raises(TypeError):
        qas.round_trips(scheme, 3, 3, mixed)
    with pytest.raises(TypeError):
        qas.round_trips(scheme, 3, 3, [np.array([1.0, 0.0])])
    with pytest.raises(DimensionMismatchError):
        qas.round_trips(scheme, 3, 3, [zero_state(2)])
    with pytest.raises(ValueError):
        qas.round_trips(scheme, 1 << 14, 3, mixed[:1])


def _acceptance_by_index_reference(scheme, state):
    # every element conjugated in full, then the trap-zero columns kept
    arr = scheme.design.elements()
    step = 1 << scheme.trap_qubits
    if isinstance(state, PureState):
        v = np.einsum("nji,j->ni", arr.conj(), state.amplitudes)[:, ::step]
        return np.einsum("ni,ni->n", v.conj(), v).real
    a = arr[:, :, ::step]
    return np.einsum("nji,jk,nki->n", a.conj(), state.matrix, a).real


def test_acceptance_by_index_equals_the_full_conjugate_expressions(scheme):
    rng = spawn_rng(13)
    adjoints = [qas.adjoint_isometry(scheme, j) for j in range(scheme.design.cardinality)]
    for _ in range(20):
        psi = random_pure_state(2, rng)
        by_index = qas.acceptance_by_index(scheme, psi)
        assert np.array_equal(by_index, [accept_branch(psi, a)[0] for a in adjoints])
        # the einsum sums in another order: 4 terms, each rounded by 2.2e-16
        assert np.max(np.abs(by_index - _acceptance_by_index_reference(scheme, psi))) <= 1e-15
        # an 11,520-term mean rounds by about 1e-16
        assert abs(qas.avg_design_accept(scheme, psi) - float(np.mean(by_index))) <= 1e-15
        rho = random_density(2, rng)
        reference = float(np.mean(_acceptance_by_index_reference(scheme, rho)))
        assert abs(qas.avg_design_accept(scheme, rho) - reference) <= 1e-15


def test_design_sum_is_the_identity_over_the_trap_dimension(scheme):
    qas.avg_design_accept(scheme, maximally_mixed(2))
    d = scheme.design.index_sums[1, 1]
    assert not d.flags.writeable
    assert np.max(np.abs(d / scheme.design.cardinality - 2.0**-scheme.trap_qubits * np.eye(4))) <= 1e-15


@pytest.mark.parametrize(
    "shape,state,error",
    [
        ((1, 1, 14), zero_state(1), DimensionMismatchError),
        ((1, 1, 14), maximally_mixed(3), DimensionMismatchError),
        ((1, 1, 14), np.ones(4) / 2, TypeError),
        ((1, 1, 14), maximally_mixed(2), TypeError),
        ((2, 1, 6), zero_state(3), ValueError),
    ],
    ids=["pure-one-qubit", "density-three-qubits", "array", "density", "indexed-design"],
)
def test_acceptance_by_index_checks_the_state(shape, state, error):
    # a pure state of the wrong size once reached einsum, whose
    # broadcasting ValueError named no dimension; a density operator's
    # design average is avg_design_accept; an indexed design has no
    # enumerated column stack
    with pytest.raises(error):
        qas.acceptance_by_index(qas.build_scheme(*shape), state)


def test_wrong_key_design_average_exact(scheme):
    rng = spawn_rng(10)
    for _ in range(20):
        rho = random_density(2, rng)
        avg = qas.avg_design_accept(scheme, rho)
        assert abs(avg - 0.5) < 1e-9
        assert avg <= 2 * scheme.epsilon


def test_wrong_key_average_includes_correct_key(scheme):
    rng = spawn_rng(11)
    sigma = random_pure_state(1, rng)
    key = 77
    rho = qas.auth(scheme, key, sigma)
    avg = qas.avg_wrong_key_accept(scheme, rho)
    assert avg >= 1.0 / (1 << 14)  # the correct key alone contributes this


@pytest.mark.parametrize("shape", [(1, 1, 6), (1, 1, 14), (2, 1, 6)])
def test_key_sum_operator_is_the_sum_over_keys(shape):
    # the same 2^k projectors, grouped by design index or not: each entry
    # sums 2^k terms of magnitude at most 1
    scheme = qas.build_scheme(*shape)
    brute = np.zeros((scheme.total_dim, scheme.total_dim), dtype=complex)
    for x in range(1 << scheme.key_bits):
        a = qas.auth_isometry(scheme, x)
        brute += a @ a.conj().T
    rng = spawn_rng(14)
    for state in (random_pure_state(scheme.total_qubits, rng), random_density(scheme.total_qubits, rng)):
        by_key = math.fsum(qas.accept_probability(scheme, x, state) for x in range(1 << scheme.key_bits))
        assert abs(qas.summed_acceptance(scheme, state) - by_key) <= (1 << scheme.key_bits) * 1e-15
    m = scheme.design.index_sums[shape]
    assert np.max(np.abs(m - brute)) <= (1 << scheme.key_bits) * 1e-15


def test_exact_key_sums_refuse_too_many_indices_before_building_one(monkeypatch):
    # 2^16 keys reach 2^16 elements of the 6-qubit group, over the cap
    scheme = qas.build_scheme(3, 3, 16)
    built = []
    monkeypatch.setattr(scheme.design, "element", built.append)
    with pytest.raises(ValueError, match="at most"):
        qas.avg_wrong_key_accept(scheme, maximally_mixed(6))
    with pytest.raises(ValueError, match="at most"):
        qas.avg_design_accept(scheme, maximally_mixed(6))
    assert built == []


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 6), st.data(), st.integers(15, 20))
def test_exact_index_sums_refuse_before_allocating(qubits, data, key_bits):
    # 2^k reached indices, or the whole group, exceed the cap: the count
    # is checked before the 2^k preimage counts (8 MiB at k = 20) or any
    # element exists
    trap_qubits = data.draw(st.integers(1, qubits - 1))
    scheme = qas.build_scheme(qubits - trap_qubits, trap_qubits, key_bits)
    state = maximally_mixed(qubits)
    for average in (qas.avg_wrong_key_accept, qas.avg_design_accept):
        cached = scheme.design._cache_bytes
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most"):
                average(scheme, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert scheme.design._cache_bytes == cached


def test_key_sum_cache_goes_with_its_design():
    # an indexed design keeps up to 64 MiB of built elements, so its key
    # sums must not keep it alive once its last scheme is gone and the
    # design cache, which keeps one design per qubit count, is cleared
    scheme = qas.build_scheme(2, 1, 6)
    qas.summed_acceptance(scheme, maximally_mixed(3))
    design = weakref.ref(scheme.design)
    designs.clifford_design.cache_clear()
    del scheme
    gc.collect()
    assert design() is None


def test_key_map_consistency(scheme):
    rng = spawn_rng(13)
    state = random_pure_state(1, rng)
    for key in rng.integers(1 << 14, size=20):
        key = int(key)
        direct = qas.auth(scheme, key, state)
        assert scheme.key_index(key) == key % 11520
        via_index = scheme.design.element(key % 11520)[:, ::2] @ state.amplitudes
        assert np.allclose(direct.amplitudes, via_index, atol=1e-12)


def test_three_qubit_scheme_round_trip():
    scheme = qas.build_scheme(1, 2, 14)
    assert scheme.design.cardinality == 1451520 * 64
    rng = spawn_rng(14)
    for _ in range(10):
        key = int(rng.integers(1 << 14))
        state = random_density(1, rng)
        out = qas.verify(scheme, key, qas.auth(scheme, key, state))
        assert abs(out.accept_probability - 1.0) < 1e-9
        assert state_distance(out.message_state, state) < 1e-9
    assert abs(qas.accept_probability(scheme, 5, maximally_mixed(3)) - 0.25) < 1e-12


def test_t_opt_minimizes_the_bound():
    # grid-search oracle for the combined epsilon bound
    def bound(n, k, t):
        return 2 ** (2 - t / 3) + 2.0 ** (5 * n + 5 * t - k - 2)

    for n, k in [(1, 64), (2, 100), (1, 200)]:
        topt = qas.t_opt(n, k)
        grid = np.linspace(max(topt - 5, 0.01), topt + 5, 4001)
        values = [bound(n, k, t) for t in grid]
        assert abs(grid[int(np.argmin(values))] - topt) < 0.01


def test_existence_epsilon_value():
    assert abs(qas.existence_epsilon(1, 64) - 5 * 2 ** ((5 - 64) / 16)) < 1e-12


def test_design_epsilon_values():
    assert abs(qas.design_epsilon(1) - 2 ** (5 / 3)) < 1e-15
    assert abs(qas.design_epsilon(6) - 1.0) < 1e-15


def test_scheme_params_fields(scheme):
    params = qas.scheme_params(scheme)
    assert params["m"] == 1 and params["t"] == 1 and params["k"] == 14
    assert params["design_id"] == "clifford-enum-q2-v1"
    assert params["epsilon"] == scheme.epsilon
    assert params["epsilon_prime"] == float(scheme.key_map.epsilon_prime)
    assert params["irreducible_poly"] == irreducible_poly(14)
