"""Tests for the design ingredients: Clifford groups, pairwise
independent permutations, and almost-uniform maps."""

import gc
import hashlib
import tracemalloc
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlease import designs, suite
from qlease.copyprotect import PointFunction
from qlease.designs import (
    EpsUniformMap,
    IndexedCliffordDesign,
    PairwisePermFamily,
    canonical_phase,
    clifford_design,
    clifford_enumerate,
    frame_potential,
    gf_mul,
    irreducible_poly,
    is_irreducible,
    num_symplectics,
    random_unitary_set,
    uniform_index,
)
from qlease.qmath import ATOL, spawn_rng


# ---------------------------------------------------------------------------
# GF(2^l)
# ---------------------------------------------------------------------------


def test_fixed_polynomials():
    assert irreducible_poly(2) == 0b111
    assert irreducible_poly(3) == 0b1011
    assert irreducible_poly(4) == 0b10011
    assert irreducible_poly(8) == 0b100011011


def test_irreducibility_check():
    assert is_irreducible(0b111, 2)
    assert not is_irreducible(0b101, 2)  # x^2 + 1 = (x+1)^2
    assert not is_irreducible(0b100000011, 8)  # divisible by x^2+x+1


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, designs._poly_mod(a, b)
    return a


def _poly_powmod_x(exp: int, mod: int) -> int:
    """x**exp modulo the polynomial ``mod`` over GF(2)."""
    result = 1
    base = designs._poly_mod(0b10, mod)
    while exp:
        if exp & 1:
            result = designs._poly_mod(designs._poly_mul(result, base), mod)
        base = designs._poly_mod(designs._poly_mul(base, base), mod)
        exp >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _rabin_irreducible(poly: int, bits: int) -> bool:
    """Rabin's irreducibility test, the reference for the trial division
    of ``is_irreducible``: x^(2^bits) = x modulo ``poly``, and ``poly`` is
    coprime to x^(2^(bits/q)) - x for every prime q dividing ``bits``."""
    if poly.bit_length() - 1 != bits:
        return False
    if _poly_powmod_x(1 << bits, poly) != designs._poly_mod(0b10, poly):
        return False
    return all(_poly_gcd(poly, _poly_powmod_x(1 << (bits // q), poly) ^ 0b10) == 1 for q in _prime_factors(bits))


def test_irreducibility_equals_rabins_test_through_degree_12():
    for bits in range(1, 13):
        for poly in range(1 << bits, 1 << (bits + 1)):
            assert is_irreducible(poly, bits) == _rabin_irreducible(poly, bits), (bits, poly)


def test_field_polynomials_are_pinned_through_20_bits():
    pinned = [
        0x3, 0x7, 0xB, 0x13, 0x25, 0x43, 0x83, 0x11B, 0x203, 0x409,
        0x805, 0x1009, 0x201B, 0x4021, 0x8003, 0x1002B, 0x20009, 0x40009, 0x80027, 0x100009,
    ]
    assert [irreducible_poly(bits) for bits in range(1, 21)] == pinned


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 8]),
    st.integers(0, 255),
    st.integers(0, 255),
    st.integers(0, 255),
)
def test_gf_field_laws(bits, a, b, c):
    n = (1 << bits) - 1
    a, b, c = a & n, b & n, c & n
    assert gf_mul(a, b, bits) == gf_mul(b, a, bits)
    assert gf_mul(gf_mul(a, b, bits), c, bits) == gf_mul(a, gf_mul(b, c, bits), bits)
    assert gf_mul(a, b ^ c, bits) == gf_mul(a, b, bits) ^ gf_mul(a, c, bits)
    assert gf_mul(a, 1, bits) == a


def test_gf_nonzero_elements_invertible():
    bits = 4
    for m in range(1, 16):
        images = {gf_mul(m, x, bits) for x in range(16)}
        assert images == set(range(16))


# ---------------------------------------------------------------------------
# pairwise independent permutations
# ---------------------------------------------------------------------------


def test_family_size():
    fam = PairwisePermFamily(3)
    assert fam.size == 7 * 8
    assert sum(1 for _ in fam.params()) == fam.size


def test_identity_and_additive_params():
    fam = PairwisePermFamily(4)
    for x in range(16):
        assert fam.apply((1, 0), x) == x
        assert fam.apply((1, 9), x) == x ^ 9


def test_zero_multiplier_rejected():
    fam = PairwisePermFamily(3)
    with pytest.raises(ValueError):
        fam.apply((0, 1), 2)
    with pytest.raises(ValueError, match="input"):
        fam.apply((1, 0), 8)


def test_every_param_is_a_permutation():
    fam = PairwisePermFamily(3)
    for r in fam.params():
        assert {fam.apply(r, x) for x in range(8)} == set(range(8))


@pytest.mark.parametrize("bits", [2, 3])
def test_pairwise_tvd_exhaustive(bits):
    # every distinct input pair hits every distinct output pair under
    # exactly |R| / (2^l (2^l - 1)) parameters
    fam = PairwisePermFamily(bits)
    n = 1 << bits
    expected = fam.size // (n * (n - 1))
    for x0, x1 in permutations(range(n), 2):
        counts = {}
        for r in fam.params():
            pair = (fam.apply(r, x0), fam.apply(r, x1))
            counts[pair] = counts.get(pair, 0) + 1
        assert set(counts) == set(permutations(range(n), 2))
        assert all(v == expected for v in counts.values())


@dataclass(frozen=True)
class _AffineModFamily:
    """``x -> (m*x + b) mod 2^bits`` over the integers, ``m != 0``: the
    parameters of the GF(2^bits) family, but not pairwise independent."""

    bits: int

    def params(self):
        return PairwisePermFamily(self.bits).params()

    def apply(self, r: tuple[int, int], x: int) -> int:
        m, b = r
        return (m * x + b) % (1 << self.bits)


def _loop_pair_counts(family) -> np.ndarray:
    """The four-loop count, the reference for ``suite._pair_counts``."""
    n = 1 << family.bits
    counts = np.zeros((n, n, n, n), dtype=np.int64)
    for r in family.params():
        images = [family.apply(r, x) for x in range(n)]
        for x0 in range(n):
            for x1 in range(n):
                if x0 != x1:
                    counts[x0, x1, images[x0], images[x1]] += 1
    return counts


def _loop_max_deviation(counts: np.ndarray, expected: int) -> int:
    n = len(counts)
    return max(
        abs(int(counts[x0, x1, y0, y1]) - expected)
        for x0, x1 in permutations(range(n), 2)
        for y0, y1 in permutations(range(n), 2)
    )


@pytest.mark.parametrize("bits", [2, 3])
def test_pair_counts_equal_the_loop_count(bits):
    family, broken = PairwisePermFamily(bits), _AffineModFamily(bits)
    assert np.array_equal(suite._pair_counts(family), _loop_pair_counts(family))
    # the integer affine maps miss the count by 1 (l = 2) and 3 (l = 3), so
    # a count that drops a pair or an image does not match here either
    assert np.array_equal(suite._pair_counts(broken), _loop_pair_counts(broken))
    assert _loop_max_deviation(_loop_pair_counts(broken), 1) == {2: 1, 3: 3}[bits]


def test_pairwise_apply_probability_l2():
    # at l = 2 each target pair is achieved by exactly one of 12 params
    fam = PairwisePermFamily(2)
    hits = [r for r in fam.params() if (fam.apply(r, 0), fam.apply(r, 1)) == (2, 3)]
    assert len(hits) == 1
    assert Fraction(len(hits), fam.size) == Fraction(1, 12)


def test_sampled_param_in_range():
    fam = PairwisePermFamily(8)
    rng = spawn_rng(0)
    for _ in range(100):
        m, b = fam.sample_param(rng)
        assert 1 <= m < 256 and 0 <= b < 256


# ---------------------------------------------------------------------------
# eps-uniform maps
# ---------------------------------------------------------------------------


def test_eps_uniform_exact_divisor():
    assert EpsUniformMap(4, 16).epsilon_prime == 0


def test_eps_uniform_known_value():
    # preimage-count oracle: |A|=16 onto |B|=12 gives distance 1/6
    m = EpsUniformMap(4, 12)
    images = [m.apply(x) for x in range(16)]
    counts = [images.count(b) for b in range(12)]
    assert sorted(set(counts)) == [1, 2]
    oracle = Fraction(1, 2) * sum(
        abs(Fraction(c, 16) - Fraction(1, 12)) for c in counts
    )
    assert m.epsilon_prime == oracle == Fraction(1, 6)
    assert m.bound == Fraction(12, 64)
    assert m.epsilon_prime <= m.bound


def test_eps_uniform_singleton_range():
    assert EpsUniformMap(1, 1).epsilon_prime == 0


def test_eps_uniform_preimages_differ_by_at_most_one():
    m = EpsUniformMap(10, 7)
    counts = m.preimage_counts()
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 1 << 10


def _preimage_epsilon_prime(k: int, b: int) -> Fraction:
    """Reference: half the L1 distance from uniform, over the rem residues
    with q + 1 preimages and the b - rem with q."""
    a = 1 << k
    q, rem = divmod(a, b)
    return (
        rem * abs(Fraction(q + 1, a) - Fraction(1, b))
        + (b - rem) * abs(Fraction(q, a) - Fraction(1, b))
    ) / 2


@pytest.mark.parametrize("k", range(1, 11))
def test_eps_uniform_closed_form_matches_preimage_sum(k):
    # every range size up to 4 * 2^k, so both |B| < |A| and |B| > |A|
    for b in range(1, 4 * (1 << k) + 1):
        assert EpsUniformMap(k, b).epsilon_prime == _preimage_epsilon_prime(k, b), b


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.integers(1, 2**18))
def test_eps_uniform_bound_property(k, b):
    m = EpsUniformMap(k, b)
    assert m.epsilon_prime == _preimage_epsilon_prime(k, b)
    assert m.epsilon_prime <= m.bound


#: Bit lengths and range sizes that must be refused when they are built.
INVALID_SIZES = {
    "perm-bool-bits": lambda: PairwisePermFamily(True),
    "perm-float-bits": lambda: PairwisePermFamily(2.5),
    "perm-zero-bits": lambda: PairwisePermFamily(0),
    "map-bool-bits": lambda: EpsUniformMap(True, 3),
    "map-bool-range": lambda: EpsUniformMap(3, True),
    "map-float-range": lambda: EpsUniformMap(3, 2.0),
    "point-bool-bits": lambda: PointFunction(1, True),
    "point-float-bits": lambda: PointFunction(1, 2.0),
    "field-zero-bits": lambda: irreducible_poly(0),
}


@pytest.mark.parametrize("name", INVALID_SIZES)
def test_bit_lengths_and_range_sizes_are_positive_ints(name):
    with pytest.raises(ValueError):
        INVALID_SIZES[name]()


# ---------------------------------------------------------------------------
# Clifford groups
# ---------------------------------------------------------------------------


def test_clifford_cardinalities():
    assert clifford_enumerate(1).cardinality == 24
    assert clifford_enumerate(2).cardinality == 11520


def test_clifford_elements_unitary():
    design = clifford_enumerate(2)
    rng = spawn_rng(1)
    for i in rng.integers(design.cardinality, size=25):
        u = design.element(int(i))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9


def _dedup_key(u: np.ndarray) -> bytes:
    # Clifford entries live on the grid {0, ±2^{-j/2}} x 8th roots of unity,
    # far from any rounding boundary at 6 decimals.
    r = np.round(u, 6) + 0.0  # normalize -0.0
    return r.tobytes()


def test_clifford_elements_distinct_canonical():
    design = clifford_enumerate(1)
    keys = {_dedup_key(design.element(i)) for i in range(24)}
    assert len(keys) == 24


def test_clifford_closed_under_product_and_inverse():
    design = clifford_enumerate(2)
    keys = {_dedup_key(u) for u in design.elements()}
    rng = spawn_rng(2)
    for _ in range(1000):
        i, j = rng.integers(design.cardinality, size=2)
        prod = canonical_phase(design.element(int(i)) @ design.element(int(j)))
        assert _dedup_key(prod) in keys
    for _ in range(50):
        i = int(rng.integers(design.cardinality))
        inv = canonical_phase(design.element(i).conj().T)
        assert _dedup_key(inv) in keys


def _enumerate_one_by_one(qubits: int) -> np.ndarray:
    """The element-by-element closure: for u in the frontier, for g in the
    generators, keep canonical_phase(g @ u) if its key is new."""
    gens = designs._generators(qubits)
    start = canonical_phase(np.eye(1 << qubits, dtype=complex))
    seen = {_dedup_key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = canonical_phase(g @ u)
                key = _dedup_key(v)
                if key not in seen:
                    seen[key] = v
                    nxt.append(v)
        frontier = nxt
    return np.stack(list(seen.values()))


# sha256 of elements().tobytes(); the key maps index these elements
ENUMERATION_SHA256 = {
    1: "2fff30a148906276f74249b8c1e836560df8b2892566219e8847895d9547ebb3",
    2: "63fe2608bf96ca592e9d690452b4e593374f93c1de546e1189eb77d050dff8e8",
}


@pytest.mark.parametrize("qubits", [1, 2])
def test_enumerated_elements_are_pinned(qubits):
    data = clifford_enumerate(qubits).elements().tobytes()
    assert hashlib.sha256(data).hexdigest() == ENUMERATION_SHA256[qubits]


@pytest.mark.parametrize("qubits", [1, 2])
def test_blocked_closure_equals_one_by_one_loop(qubits):
    got = clifford_enumerate(qubits).elements()
    want = _enumerate_one_by_one(qubits)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_enumeration_memory_peak():
    # the element-by-element loop peaked at 12.8 MiB, the blocked closure on
    # float keys at 9.3 MiB and the closure on tableau codes at 6.6 MiB
    tracemalloc.start()
    try:
        clifford_enumerate(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, -1j], [1j, 0]]])


def _pauli(row: int, qubits: int) -> np.ndarray:
    """The signed Pauli of a tableau row: bit 2j the X part on qubit j (qubit 0
    the leftmost factor), bit 2j+1 its Z part, bit 2q the sign."""
    out = np.eye(1)
    for j in range(qubits):
        out = np.kron(out, _PAULIS[(row >> 2 * j) & 3])
    return -out if row >> 2 * qubits & 1 else out


def _pauli_rows(ops: np.ndarray, qubits: int) -> np.ndarray:
    """The tableau row of each signed Pauli in a stack, read from its floats:
    its one overlap Tr(P† op) / d of modulus 1, with the overlap's sign."""
    rows = np.arange(1 << 2 * qubits)
    basis = np.stack([_pauli(int(r), qubits) for r in rows])
    overlaps = np.einsum("pij,...ij->...p", basis.conj(), ops) / (1 << qubits)
    at = np.argmax(np.abs(overlaps), axis=-1)
    coeff = np.take_along_axis(overlaps, at[..., None], axis=-1)[..., 0]
    assert np.allclose(np.abs(overlaps).sum(axis=-1), 1, atol=1e-9)
    assert np.allclose(np.abs(coeff.real), 1, atol=1e-9)
    return rows[at] | (coeff.real < 0).astype(int) << 2 * qubits


@pytest.mark.parametrize("qubits", [1, 2])
def test_tableau_rules_conjugate_every_signed_pauli(qubits):
    # each generator's integer rule against the float product g P g†, on
    # every signed Pauli in row 0 of a code (the other rows zero)
    rows = np.arange(1 << 2 * qubits + 1)
    images = designs._tableau_images(rows, qubits)
    for g, gate in enumerate(designs._generators(qubits)):
        conjugated = np.stack([gate @ _pauli(int(r), qubits) @ gate.conj().T for r in rows])
        assert np.array_equal(images[:, g], _pauli_rows(conjugated, qubits)), g


@pytest.mark.parametrize("qubits", [1, 2])
def test_enumerated_tableaux_are_distinct(qubits):
    # an element's tableau read from its floats, U X_j U† and U Z_j U†: equal
    # exactly when the elements are equal modulo phase
    elements = clifford_enumerate(qubits).elements()
    paulis = np.stack([_pauli(1 << r, qubits) for r in range(2 * qubits)])
    images = elements[:, None] @ paulis @ elements.conj().swapaxes(-1, -2)[:, None]
    rows = _pauli_rows(images, qubits)
    codes = (rows << np.arange(2 * qubits) * (2 * qubits + 1)).sum(axis=1)
    assert len(np.unique(codes)) == len(elements) == {1: 24, 2: 11520}[qubits]


def test_enumeration_range_errors():
    with pytest.raises(ValueError):
        clifford_enumerate(3)
    with pytest.raises(ValueError):
        clifford_design(7)


def test_indexed_design_matches_enumeration_at_one_qubit():
    idx = IndexedCliffordDesign(1)
    assert idx.cardinality == 24
    enum_keys = {_dedup_key(u) for u in clifford_enumerate(1).elements()}
    idx_keys = {_dedup_key(idx.element(i)) for i in range(24)}
    assert idx_keys == enum_keys


def test_indexed_design_members_at_two_qubits():
    idx = IndexedCliffordDesign(2)
    assert idx.cardinality == 11520
    keys = {_dedup_key(u) for u in clifford_enumerate(2).elements()}
    rng = spawn_rng(3)
    for _ in range(40):
        u = idx.element(int(rng.integers(idx.cardinality)))
        assert _dedup_key(u) in keys


def _sample(design, rng) -> np.ndarray:
    """A uniformly drawn element of ``design``."""
    return design.element(int(uniform_index(design.cardinality, rng)))


def test_symplectic_group_orders():
    assert num_symplectics(1) == 6
    assert num_symplectics(2) == 720
    assert num_symplectics(3) == 1451520


def test_sample_determinism():
    a = _sample(clifford_design(3), spawn_rng(9))
    b = _sample(clifford_design(3), spawn_rng(9))
    assert np.array_equal(a, b)


def test_sample_unitary_at_three_qubits():
    rng = spawn_rng(4)
    for _ in range(10):
        u = _sample(clifford_design(3), rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-9


@pytest.mark.parametrize("qubits", [5, 6])
def test_sample_beyond_int64_in_range_and_deterministic(qubits):
    # the Clifford cardinality at 5 and 6 qubits exceeds int64
    n = IndexedCliffordDesign(qubits).cardinality
    assert n > 1 << 63
    draws = uniform_index(n, spawn_rng(12), 200)
    assert draws == uniform_index(n, spawn_rng(12), 200)
    assert all(0 <= i < n for i in draws)
    # the top bit of the index range is reached, so the draws span it
    assert max(draws) >= n // 2
    a = _sample(clifford_design(qubits), spawn_rng(13))
    assert np.array_equal(a, _sample(clifford_design(qubits), spawn_rng(13)))
    assert np.max(np.abs(a.conj().T @ a - np.eye(1 << qubits))) < 1e-9


def test_clifford_design_is_one_object_per_qubit_count():
    for qubits in range(1, 7):
        assert clifford_design(qubits) is clifford_design(qubits)
    assert isinstance(clifford_design(3), IndexedCliffordDesign)


def test_indexed_element_cache_is_capped_by_bytes(monkeypatch):
    # a 4-qubit element is 16 x 16 complex, 4 KiB: room for three
    monkeypatch.setattr(designs, "ELEMENT_CACHE_BYTES", 3 * 16 * 16 * 16)
    design = IndexedCliffordDesign(4)
    indices = [7919 * i for i in range(5)]
    built = [design.element(i) for i in indices]
    held = sum(m.nbytes for m in design._cache.values())
    assert held == design._cache_bytes <= designs.ELEMENT_CACHE_BYTES
    assert sorted(design._cache) == [(i, 1) for i in indices[:3]]
    # past the cap, elements are rebuilt with the same bytes
    assert all(np.array_equal(design.element(i), m) for i, m in zip(indices, built))


def test_each_live_design_has_its_own_element_budget(monkeypatch):
    # two live designs each fill a budget of three 4-qubit elements, and
    # neither's blocks leave the other less room
    monkeypatch.setattr(designs, "ELEMENT_CACHE_BYTES", 3 * 16 * 16 * 16)
    first, second = IndexedCliffordDesign(4), IndexedCliffordDesign(4)
    for design in (first, second, first):
        for i in range(5):
            design.element(i)
        assert sorted(design._cache) == [(i, 1) for i in range(3)]
        assert design._cache_bytes == sum(m.nbytes for m in design._cache.values()) == 3 * 16 * 16 * 16


def test_a_collected_design_takes_its_blocks_with_it():
    design = IndexedCliffordDesign(4)
    block = weakref.ref(design.element(0))
    assert block() is design._cache[0, 1]
    del design
    gc.collect()
    assert block() is None


def test_exact_frame_potential_reads_the_cached_group(monkeypatch):
    # the one cache of an enumerated group is clifford_design's
    calls = []
    enumerate_ = designs.clifford_enumerate

    def counted(qubits):
        calls.append(qubits)
        return enumerate_(qubits)

    for qubits in (1, 2):
        clifford_design(qubits)
    monkeypatch.setattr(designs, "clifford_enumerate", counted)
    for qubits in (1, 2):
        assert abs(designs.clifford_frame_potential(qubits) - 2.0) < 1e-12
    assert calls == []
    with pytest.raises(ValueError, match="enumerated"):
        designs.clifford_frame_potential(3)


# --- the dense tableau builder, kept as the reference for the bitmask one ---

_REF_PAULI_1Q = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def _ref_sympl_inner(v, w):
    t = 0
    for i in range(v.size >> 1):
        t += int(v[2 * i]) * int(w[2 * i + 1])
        t += int(w[2 * i]) * int(v[2 * i + 1])
    return t % 2


def _ref_transvection(k, v):
    return (v + _ref_sympl_inner(k, v) * k) % 2


def _ref_int_to_bits(i, n):
    out = np.zeros(n, dtype=np.int8)
    for j in range(n):
        out[j] = i & 1
        i >>= 1
    return out


def _ref_find_transvection(x, y):
    out = np.zeros((2, x.size), dtype=np.int8)
    if np.array_equal(x, y):
        return out
    if _ref_sympl_inner(x, y) == 1:
        out[0] = (x + y) % 2
        return out
    z = np.zeros(x.size, dtype=np.int8)
    for i in range(x.size >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) != 0 and (y[ii] + y[ii + 1]) != 0:
            z[ii] = (x[ii] + y[ii]) % 2
            z[ii + 1] = (x[ii + 1] + y[ii + 1]) % 2
            if (z[ii] + z[ii + 1]) == 0:
                z[ii + 1] = 1
                if x[ii] != x[ii + 1]:
                    z[ii] = 1
            out[0] = (x + z) % 2
            out[1] = (y + z) % 2
            return out
    for i in range(x.size >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) != 0 and (y[ii] + y[ii + 1]) == 0:
            if x[ii] == x[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = x[ii]
                z[ii] = x[ii + 1]
            break
    for i in range(x.size >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) == 0 and (y[ii] + y[ii + 1]) != 0:
            if y[ii] == y[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = y[ii]
                z[ii] = y[ii + 1]
            break
    out[0] = (x + z) % 2
    out[1] = (y + z) % 2
    return out


def _ref_symplectic_matrix(i, n):
    nn = 2 * n
    s = (1 << nn) - 1
    k = (i % s) + 1
    i //= s
    f1 = _ref_int_to_bits(k, nn)
    e1 = np.zeros(nn, dtype=np.int8)
    e1[0] = 1
    tv = _ref_find_transvection(e1, f1)
    bits = _ref_int_to_bits(i % (1 << (nn - 1)), nn - 1)
    i //= 1 << (nn - 1)
    eprime = e1.copy()
    for j in range(2, nn):
        eprime[j] = bits[j - 1]
    h0 = _ref_transvection(tv[0], eprime)
    h0 = _ref_transvection(tv[1], h0)
    if bits[0] == 1:
        f1 = f1 * 0
    id2 = np.eye(2, dtype=np.int8)
    if n != 1:
        rest = _ref_symplectic_matrix(i, n - 1)
        g = np.zeros((nn, nn), dtype=np.int8)
        g[:2, :2] = id2
        g[2:, 2:] = rest
    else:
        g = id2.copy()
    for j in range(nn):
        g[j] = _ref_transvection(tv[0], g[j])
        g[j] = _ref_transvection(tv[1], g[j])
        g[j] = _ref_transvection(h0, g[j])
        g[j] = _ref_transvection(f1, g[j])
    return g


def _ref_pauli_matrix(vec):
    """Hermitian Pauli for an interleaved (x, z) vector, qubit 0 leftmost."""
    out = np.array([[1.0 + 0j]])
    for j in range(vec.size // 2):
        out = np.kron(out, _REF_PAULI_1Q[(int(vec[2 * j]), int(vec[2 * j + 1]))])
    return out


def _ref_clifford_from_tableau(g, signs):
    n = g.shape[0] // 2
    dim = 1 << n
    x_imgs = []
    z_imgs = []
    for j in range(n):
        x_imgs.append(((-1) ** int(signs[2 * j])) * _ref_pauli_matrix(g[2 * j]))
        z_imgs.append(((-1) ** int(signs[2 * j + 1])) * _ref_pauli_matrix(g[2 * j + 1]))
    proj = np.eye(dim, dtype=complex)
    for zi in z_imgs:
        proj = proj @ (np.eye(dim) + zi) / 2
    col = int(np.argmax(np.linalg.norm(proj, axis=0) > 1e-9))
    u0 = proj[:, col]
    u0 = u0 / np.linalg.norm(u0)
    u = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        v = u0
        for j in range(n):
            if (b >> (n - 1 - j)) & 1:
                v = x_imgs[j] @ v
        u[:, b] = v
    return canonical_phase(u)


def _ref_element(qubits, i):
    num = num_symplectics(qubits)
    g = _ref_symplectic_matrix(i % num, qubits)
    return _ref_clifford_from_tableau(g, _ref_int_to_bits(i // num, 2 * qubits))


def _rows_as_bits(rows, qubits):
    return np.array([_ref_int_to_bits(r, 2 * qubits) for r in rows], dtype=np.int8)


def _has_negative_zero(u):
    parts = np.concatenate([u.real.ravel(), u.imag.ravel()])
    return bool(np.any(np.signbit(parts[parts == 0])))


@pytest.mark.parametrize("qubits", [1, 2])
def test_symplectic_matrices_equal_reference(qubits):
    for i in range(num_symplectics(qubits)):
        got = _rows_as_bits(designs._symplectic_matrix(i, qubits), qubits)
        assert np.array_equal(got, _ref_symplectic_matrix(i, qubits)), i


# elements compared byte for byte with the dense builder, per qubit count
_REFERENCE_SAMPLE = {2: 300, 3: 120, 4: 60, 5: 30, 6: 12}


@pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5, 6])
def test_elements_equal_reference_bytes(qubits):
    design = IndexedCliffordDesign(qubits)
    n = design.cardinality
    if qubits == 1:
        indices = list(range(n))
    else:
        rng = spawn_rng(20 + qubits)
        indices = [0, n - 1] + [int(i) for i in uniform_index(n, rng, _REFERENCE_SAMPLE[qubits])]
        if n > 1 << 63:
            indices += [(1 << 63) + 12345, n - (1 << 40)]
    for i in indices:
        u = design.element(i)
        assert u.tobytes() == _ref_element(qubits, i).tobytes(), i
        assert not _has_negative_zero(u), i


@pytest.mark.parametrize("qubits", [3, 4, 5, 6])
def test_cached_design_elements_equal_reference_bytes(qubits):
    # the design every scheme on this many qubits shares, read twice
    design = clifford_design(qubits)
    rng = spawn_rng(40 + qubits)
    for i in [0, design.cardinality - 1] + [int(i) for i in uniform_index(design.cardinality, rng, 4)]:
        want = _ref_element(qubits, i).tobytes()
        assert design.element(i).tobytes() == design.element(i).tobytes() == want, i


def test_capped_rebuilds_equal_reference_bytes(monkeypatch):
    # no element fits the cache: every call builds anew
    monkeypatch.setattr(designs, "ELEMENT_CACHE_BYTES", 0)
    design = IndexedCliffordDesign(5)
    for i in [0, 7919, 2**40 + 17, design.cardinality - 1]:
        first, again = design.element(i), design.element(i)
        assert first is not again
        want = _ref_element(5, i).tobytes()
        assert first.tobytes() == again.tobytes() == want
    assert design._cache == {}


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.data())
def test_elements_conjugate_paulis_to_the_tableau(qubits, data):
    # U X_j U^dagger and U Z_j U^dagger are the signed Paulis of tableau
    # rows 2j and 2j+1, all built densely here
    design = IndexedCliffordDesign(qubits)
    i = data.draw(st.integers(0, design.cardinality - 1))
    num = num_symplectics(qubits)
    rows = _rows_as_bits(designs._symplectic_matrix(i % num, qubits), qubits)
    signs = _ref_int_to_bits(i // num, 2 * qubits)
    u = design.element(i)
    for j in range(qubits):
        for row, unit in ((2 * j, (1, 0)), (2 * j + 1, (0, 1))):
            basis = np.zeros(2 * qubits, dtype=np.int8)
            basis[2 * j : 2 * j + 2] = unit
            image = (-1) ** int(signs[row]) * _ref_pauli_matrix(rows[row])
            conj = u @ _ref_pauli_matrix(basis) @ u.conj().T
            assert np.max(np.abs(conj - image)) < ATOL, (i, row)


@pytest.mark.parametrize("design", [clifford_enumerate(1), IndexedCliffordDesign(1)], ids=["enumerated", "indexed"])
@pytest.mark.parametrize("i", [-1, 24, 1 << 70])
def test_element_index_outside_the_design_is_refused(design, i):
    # numpy would read -1 from the end of an enumerated design's stack
    with pytest.raises(IndexError):
        design.element(i)


@pytest.mark.parametrize("qubits", [3, 4, 5, 6])
def test_element_takes_numpy_integer_indices(qubits):
    n = IndexedCliffordDesign(qubits).cardinality
    for i in (12345, ((1 << 62) + 99) % n):
        # fresh designs, so the numpy index is built, not served from a cache
        want = IndexedCliffordDesign(qubits).element(i)
        assert np.array_equal(IndexedCliffordDesign(qubits).element(np.int64(i)), want)
    with pytest.raises(TypeError):
        IndexedCliffordDesign(qubits).element(3.0)


def test_uniform_index_within_int64_is_rng_integers():
    # same draws as rng.integers, so reports at <= 4 qubits keep their bits
    n = IndexedCliffordDesign(4).cardinality
    assert np.array_equal(uniform_index(n, spawn_rng(14), 50), spawn_rng(14).integers(n, size=50))
    assert uniform_index(1 << 63, spawn_rng(15)) == spawn_rng(15).integers(1 << 63)


def _per_index_uniform_index(n, rng, size):
    """The reference draw above int64: one ``rng.bytes`` call per attempt,
    with the bit length of ``n - 1`` in random bits, redrawn at or above ``n``."""
    bits = (n - 1).bit_length()
    nbytes = (bits + 7) // 8

    def draw():
        while True:
            v = int.from_bytes(rng.bytes(nbytes), "little") >> (8 * nbytes - bits)
            if v < n:
                return v

    return draw() if size is None else [draw() for _ in range(size)]


@pytest.mark.parametrize("qubits", [5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_index_beyond_int64_is_the_per_index_draw(qubits, seed):
    # the same values, and the generator left in the same state
    n = IndexedCliffordDesign(qubits).cardinality
    got, want = spawn_rng(seed), spawn_rng(seed)
    for size in (3000, None, 0, 1, 500):
        assert uniform_index(n, got, size) == _per_index_uniform_index(n, want, size)
    assert got.random() == want.random()


@pytest.mark.parametrize(
    "qubits,t", [(q, t) for q in (3, 4, 5, 6) for t in range(1, q)], ids=str
)
def test_column_blocks_are_element_columns(qubits, t):
    # U_i[:, ::2^t] built alone has the bytes of the whole element's columns
    design = IndexedCliffordDesign(qubits)
    n = design.cardinality
    indices = [0, n - 1] + [int(i) for i in uniform_index(n, spawn_rng(60 + qubits), 6)]
    for i in indices:
        block = design._columns(i, 1 << t)
        assert block.shape == (1 << qubits, 1 << (qubits - t))
        assert block.tobytes() == np.ascontiguousarray(design.element(i)[:, :: 1 << t]).tobytes(), i


def test_sample_uniform_chi2_one_qubit():
    from scipy import stats

    rng = spawn_rng(5)
    counts: dict[bytes, int] = {}
    for _ in range(10**4):
        key = _dedup_key(_sample(clifford_design(1), rng))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    assert stats.chisquare(list(counts.values())).pvalue > 1e-3


def test_canonical_phase_first_entry_positive():
    rng = spawn_rng(6)
    for _ in range(20):
        u = canonical_phase(_sample(clifford_design(2), rng) * np.exp(0.7j))
        col = u[:, 0]
        lead = col[np.argmax(np.abs(col) > 1e-12)]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


# ---------------------------------------------------------------------------
# frame potential
# ---------------------------------------------------------------------------


def test_frame_potential_exact_design():
    assert abs(frame_potential(clifford_enumerate(1)) - 2.0) < 1e-9


@pytest.mark.parametrize("qubits", [1, 2])
def test_group_frame_potential_matches_the_exhaustive_gram(qubits):
    # the one-trace-per-element identity against all N^2 ordered pairs;
    # the Gram is taken in bounded blocks (11520^2 overlaps at q = 2)
    exact = designs.clifford_frame_potential(qubits)
    assert abs(exact - 2.0) < 1e-12
    design = clifford_enumerate(qubits)
    tracemalloc.start()
    try:
        gram = frame_potential(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(gram - exact) < 1e-12
    assert peak < 64 << 20


def test_frame_potential_single_element():
    trivial = designs.EnumeratedDesign(1, np.stack([np.eye(2, dtype=complex)]), "id")
    assert abs(frame_potential(trivial) - 16.0) < 1e-12


@pytest.mark.parametrize(
    "kwargs,match", [({}, "enumerated"), ({"samples": 10}, "rng")], ids=["exhaustive", "sampled-without-rng"]
)
def test_frame_potential_refuses_an_indexed_sum_and_a_missing_rng(kwargs, match):
    with pytest.raises(ValueError, match=match):
        frame_potential(IndexedCliffordDesign(3), **kwargs)


@pytest.mark.parametrize("samples", [0, -5, 2.0, True])
def test_frame_potential_needs_a_sample(samples):
    # no pair gives no estimate: an error naming the argument, not nan;
    # a float or bool count once ended in numpy's TypeError
    for design in (clifford_enumerate(1), designs.IndexedCliffordDesign(3)):
        with pytest.raises(ValueError, match="samples"):
            frame_potential(design, samples=samples, rng=spawn_rng(16))


def test_frame_potential_negative_control():
    control = random_unitary_set(1, 24, spawn_rng(7))
    assert frame_potential(control) > 2.1


def test_frame_potential_sampled_chunks_match_one_gather():
    # pairs are gathered in blocks; the estimate equals one gather of all
    design = clifford_enumerate(2)
    samples = designs._PAIR_CHUNK + 1000
    est = frame_potential(design, samples=samples, rng=spawn_rng(16))
    rng = spawn_rng(16)
    ii = rng.integers(design.cardinality, size=samples)
    jj = rng.integers(design.cardinality, size=samples)
    flat = design.elements().reshape(design.cardinality, -1)
    overlaps = np.einsum("ni,ni->n", flat[ii].conj(), flat[jj])
    assert est == float(np.mean(np.abs(overlaps) ** 4))


def test_frame_potential_sampled_estimator():
    rng = spawn_rng(8)
    est = frame_potential(clifford_enumerate(1), samples=200000, rng=rng)
    assert abs(est - 2.0) < 0.1
