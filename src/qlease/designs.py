"""Combinatorial ingredients: Clifford 2-designs, pairwise independent
permutations over GF(2^l), and almost-uniform key maps.

The unitary 2-design is instantiated as the qubit Clifford group.  At one
and two qubits the whole group is enumerated explicitly (24 and 11520
elements modulo global phase); from three to six qubits elements are
addressed through a canonical index built from the Koenig-Smolin
symplectic enumeration, which also gives exactly uniform sampling:

    R. Koenig and J. A. Smolin, "How to efficiently select an arbitrary
    Clifford group element", J. Math. Phys. 55, 122202 (2014).

An indexed element is built as a tableau, following Aaronson and
Gottesman (2004): each row of the binary symplectic matrix is one int of
2n bits, and each signed image Pauli acts on the dense matrix as a row
permutation times a phase vector, so no Pauli is ever built densely.

Being a 2-design is not taken on faith: :func:`frame_potential` computes
the pair-averaged fourth overlap moment, which equals 2 exactly for any
exact 2-design and exceeds it for anything else.  For the enumerated
Clifford groups :func:`clifford_frame_potential` gives the same moment
exactly from one trace per element.

Global phases are fixed throughout by making the first nonzero entry of
the first column real and positive; determinism relies on this canonical
form.  The enumeration deduplicates on tableau codes, which are exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

GENERATOR_SET_VERSION = "v1"
_INTEGERS = (int, np.integer)


def is_positive_int(v) -> bool:
    """The rule for every bit length and range size: an ``int``, not a ``bool``, >= 1."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def is_bit_string(x, bits: int) -> bool:
    """The rule for every key, point and input: an integer (numpy's too), not a bool, in {0,1}^bits."""
    return isinstance(x, _INTEGERS) and not isinstance(x, bool) and 0 <= x < (1 << bits)


# ---------------------------------------------------------------------------
# GF(2)[x] and GF(2^l)
# ---------------------------------------------------------------------------


def _poly_mod(a: int, mod: int) -> int:
    while a.bit_length() >= mod.bit_length():
        a ^= mod << (a.bit_length() - mod.bit_length())
    return a


def _poly_mul(a: int, b: int) -> int:
    out = 0
    shift = 0
    while b:
        if b & 1:
            out ^= a << shift
        b >>= 1
        shift += 1
    return out


def is_irreducible(poly: int, bits: int) -> bool:
    """Whether ``poly`` is an irreducible degree-``bits`` polynomial over
    GF(2), by the definition: it has degree ``bits`` and no factor of
    degree 1..``bits // 2`` (a reducible polynomial has one that small)."""
    return poly.bit_length() - 1 == bits and all(_poly_mod(poly, f) for f in range(2, 1 << (bits // 2 + 1)))


@lru_cache(maxsize=None)
def irreducible_poly(bits: int) -> int:
    """The field-defining polynomial used for GF(2^bits): the smallest
    irreducible one of that degree (``x^8 + x^4 + x^3 + x + 1`` at 8 bits),
    found by trial division and kept for the life of the process."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    for candidate in range((1 << bits) + 1, 1 << (bits + 1)):
        if is_irreducible(candidate, bits):
            return candidate
    raise RuntimeError(f"no irreducible polynomial of degree {bits} found")


def gf_mul(a: int, b: int, bits: int) -> int:
    """Product in GF(2^bits) under :func:`irreducible_poly`."""
    return _poly_mod(_poly_mul(a, b), irreducible_poly(bits))


# ---------------------------------------------------------------------------
# Pairwise independent permutations x -> m*x + b over GF(2^l)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairwisePermFamily:
    """All maps ``h_(m,b)(x) = m*x + b`` over GF(2^bits) with ``m != 0``.

    Every member is a permutation of {0,1}^bits, and a uniformly random
    parameter sends any fixed pair of distinct inputs to any fixed pair of
    distinct outputs with probability exactly 1/(2^l (2^l - 1)).
    """

    bits: int

    def __post_init__(self):
        if not is_positive_int(self.bits):
            raise ValueError("bits must be a positive integer")

    @property
    def size(self) -> int:
        n = 1 << self.bits
        return (n - 1) * n

    def params(self) -> Iterator[tuple[int, int]]:
        n = 1 << self.bits
        for m in range(1, n):
            for b in range(n):
                yield (m, b)

    def sample_param(self, rng: np.random.Generator) -> tuple[int, int]:
        n = 1 << self.bits
        return int(rng.integers(1, n)), int(rng.integers(0, n))

    def apply(self, r: tuple[int, int], x: int) -> int:
        m, b = r
        if not (is_bit_string(m, self.bits) and m != 0 and is_bit_string(b, self.bits)):
            raise ValueError("parameter out of range (m must be nonzero)")
        if not is_bit_string(x, self.bits):
            raise ValueError("input out of range")
        return gf_mul(int(m), int(x), self.bits) ^ int(b)


# ---------------------------------------------------------------------------
# Almost-uniform key maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsUniformMap:
    """The map ``x -> x mod range_size`` from ``{0,1}^domain_bits``.

    ``epsilon_prime`` is the exact statistical distance between the image
    of the uniform distribution and the uniform distribution on the range:
    ``rem (b - rem) / (a b)`` for ``a = 2**domain_bits``, ``b = range_size``
    and ``rem = a mod b`` (``rem`` residues have one preimage more than the
    rest).  It never exceeds ``b / (4 a)``.
    """

    domain_bits: int
    range_size: int
    epsilon_prime: Fraction = field(init=False)

    def __post_init__(self):
        if not (is_positive_int(self.domain_bits) and is_positive_int(self.range_size)):
            raise ValueError("domain_bits and range_size must be positive integers")
        a, b = 1 << self.domain_bits, self.range_size
        rem = a % b
        object.__setattr__(self, "epsilon_prime", Fraction(rem * (b - rem), a * b))

    @property
    def bound(self) -> Fraction:
        return Fraction(self.range_size, 4 * (1 << self.domain_bits))

    def apply(self, x):
        """``x mod range_size`` for one bit string or an int array of them; an array is
        reduced only when ``2**domain_bits > range_size``, which may exceed int64."""
        if not isinstance(x, np.ndarray):
            if not is_bit_string(x, self.domain_bits):
                raise ValueError("input outside the domain")
            return operator.index(x) % self.range_size
        if x.dtype.kind in "bf" or np.any((x < 0) | (x >= 1 << self.domain_bits)):
            raise ValueError("input outside the domain")
        return x % self.range_size if 1 << self.domain_bits > self.range_size else x

    def preimage_counts(self) -> np.ndarray:
        """Preimage counts of the ``min(2**domain_bits, range_size)`` reached indices."""
        a = 1 << self.domain_bits
        q, rem = divmod(a, self.range_size)
        out = np.full(min(a, self.range_size), q, dtype=np.int64)
        out[:rem] += 1
        return out


# ---------------------------------------------------------------------------
# Clifford groups
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def canonical_phase(u: np.ndarray) -> np.ndarray:
    """Rescale by a global phase so the first nonzero entry of the first
    column is real and positive."""
    col = u[:, 0]
    idx = int(np.argmax(np.abs(col) > 1e-12))
    z = col[idx]
    return u * (abs(z) / z)


def _generators(qubits: int) -> list[np.ndarray]:
    """H and S on each qubit, and CNOT; the caller admits 1 or 2 qubits only."""
    if qubits == 1:
        return [_H, _S]
    eye = np.eye(2, dtype=complex)
    return [
        np.kron(_H, eye),
        np.kron(eye, _H),
        np.kron(_S, eye),
        np.kron(eye, _S),
        _CNOT,
    ]


def uniform_index(n: int, rng: np.random.Generator, size: int | None = None):
    """Uniform integer in ``[0, n)`` (``size`` of them as a sequence).

    ``rng.integers`` draws it while ``n`` fits its int64 range.  Larger
    ``n`` (the Clifford groups at 5 and 6 qubits) is drawn by rejection:
    an attempt takes the bit length of ``n - 1`` in random bits from one row
    of uint32 words (the stream ``rng.bytes`` reads, so the values and the
    generator's later state are those of one ``rng.bytes`` per attempt),
    and values at or above ``n``, fewer than one in two, are redrawn in the
    next round of rows, one per value still needed.
    """
    if n <= 1 << 63:
        return rng.integers(n, size=size)
    bits = (n - 1).bit_length()
    nbytes, words = (bits + 7) // 8, (bits + 31) // 32
    wanted, out = 1 if size is None else size, []
    while len(out) < wanted:
        drawn = rng.integers(1 << 32, size=(wanted - len(out), words), dtype=np.uint32).astype("<u4").tobytes()
        for lo in range(0, len(drawn), 4 * words):
            v = int.from_bytes(drawn[lo : lo + nbytes], "little") >> (8 * nbytes - bits)
            if v < n:
                out.append(v)
    return out[0] if size is None else out


class UnitaryDesign:
    """Finite set of unitaries addressable by a canonical index: ``element(i)``
    is deterministic, :func:`uniform_index` draws one exactly uniformly, and
    the dict ``index_sums`` keeps the index sums built from it, by scheme shape."""

    qubits: int
    cardinality: int
    design_id: str

    def element(self, i: int) -> np.ndarray:
        raise NotImplementedError

    def conj_columns(self, indices, step: int) -> np.ndarray:
        """``conj(U_i[:, ::step])``, C-contiguous, for one valid index or an
        array of them: the trap-zero columns of a scheme with ``step = 2^t``."""
        raise NotImplementedError

    def _index(self, i: int) -> int:
        i = operator.index(i)
        if not 0 <= i < self.cardinality:
            raise IndexError("design index out of range")
        return i


class EnumeratedDesign(UnitaryDesign):
    """A design held as an explicit list of canonical-phase unitaries."""

    def __init__(self, qubits: int, elements: np.ndarray, design_id: str):
        self.qubits = qubits
        self._elements = np.ascontiguousarray(elements)
        self._elements.setflags(write=False)
        self.cardinality = len(elements)
        self.design_id = design_id
        self._conj_stacks: dict[int, np.ndarray] = {}
        self.index_sums = {}

    def element(self, i: int) -> np.ndarray:
        return self._elements[self._index(i)]

    def conj_columns(self, indices, step: int) -> np.ndarray:
        """From one read-only stack per ``step``, conjugated once: an int
        index (or a slice) gives a view of it, an array a gather."""
        stack = self._conj_stacks.get(step)
        if stack is None:
            stack = self._conj_stacks[step] = self._elements[:, :, ::step].conj()
            stack.setflags(write=False)
        return stack[indices]

    def elements(self) -> np.ndarray:
        """All elements stacked as an (N, d, d) array."""
        return self._elements


def _tableau_images(codes: np.ndarray, qubits: int) -> np.ndarray:
    """The (n, G) tableau codes of ``g U``, for the n codes of elements U
    and each generator g of :func:`_generators` in its order.

    A code holds the images of X_j and Z_j (rows 2j and 2j+1), each in
    2q+1 bits: bit 2j the X part on qubit j, 2j+1 its Z part, 2q the sign.
    Conjugating by g updates every row at once through the Aaronson-
    Gottesman rules: H swaps X and Z and S adds X to Z, each flipping the
    sign on Y; CNOT (control 0, target 1) adds X_0 to X_1 and Z_1 to Z_0,
    flipping the sign where x_0 z_1 (x_1 + z_0 + 1) is odd.
    """
    ones = sum(1 << r * (2 * qubits + 1) for r in range(2 * qubits))  # bit 0 of each row
    x = [(codes >> 2 * a) & ones for a in range(qubits)]
    z = [(codes >> 2 * a + 1) & ones for a in range(qubits)]
    y = [(xa & za) << 2 * qubits for xa, za in zip(x, z)]
    images = [codes ^ y[a] ^ (x[a] ^ z[a]) * (3 << 2 * a) for a in range(qubits)]
    images += [codes ^ y[a] ^ (x[a] << 2 * a + 1) for a in range(qubits)]
    if qubits == 2:
        images.append(codes ^ ((x[0] & z[1] & (x[1] ^ z[0] ^ ones)) << 4) ^ (x[0] << 2) ^ (z[1] << 1))
    return np.stack(images, axis=1)


def clifford_enumerate(qubits: int) -> EnumeratedDesign:
    """The full Clifford group modulo phase, by closure under generators.

    Cardinality is 24 at one qubit and 11520 at two; anything larger is
    out of enumeration range.

    The closure is breadth-first on tableau codes (:func:`_tableau_images`),
    which are equal exactly when two elements are equal modulo phase.  A
    level's codes, met in (u, g) order, keep the first meeting of each code
    not seen before, in the order met: the order of the element-by-element
    loop (for u in the frontier, for g in the generators).  Only those get
    a matrix, ``g @ u`` in one gathered matmul.  The phase factor is
    ``abs(z) / z`` on each numpy scalar, as :func:`canonical_phase`
    computes it (the array expression ``np.abs(z) / z`` differs from it in
    the last bit, and the element bytes must not move), once per distinct
    bit pattern of ``z``.
    """
    if qubits not in (1, 2):
        raise ValueError("clifford_enumerate supports qubits in {1, 2}")
    gens = np.stack(_generators(qubits))
    start = canonical_phase(np.eye(1 << qubits, dtype=complex))
    codes = np.array([sum(1 << r * (2 * qubits + 2) for r in range(2 * qubits))])  # the identity's
    seen = np.zeros(1 << 2 * qubits * (2 * qubits + 1), dtype=bool)
    seen[codes] = True
    levels = [start[None]]
    while len(codes):
        met = _tableau_images(codes, qubits).ravel()
        fresh = np.flatnonzero(~seen[met])
        first = fresh[np.sort(np.unique(met[fresh], return_index=True)[1])]
        codes = met[first]
        seen[codes] = True
        u, g = np.divmod(first, len(gens))
        prods = np.matmul(gens[g], levels[-1][u])
        col = prods[:, :, 0]
        z = col[np.arange(len(col)), np.argmax(np.abs(col) > 1e-12, axis=1)]
        bits, inverse = np.unique(z.view("V16"), return_inverse=True)
        prods *= np.array([abs(c) / c for c in bits.view(complex)])[inverse, None, None]
        levels.append(prods)
    return EnumeratedDesign(
        qubits, np.concatenate(levels), f"clifford-enum-q{qubits}-{GENERATOR_SET_VERSION}"
    )


# --- Koenig-Smolin symplectic enumeration (interleaved x,z convention) -----
#
# A vector of GF(2)^(2n) is one int: bit 2j is the X part of qubit j and
# bit 2j+1 its Z part.  A symplectic matrix is the list of its 2n rows.

_EVEN_BITS = 0x5555_5555_5555_5555


def _sympl_inner(v: int, w: int) -> int:
    """Symplectic form: the parity of v against w with each (x, z) pair swapped."""
    swapped = ((w & _EVEN_BITS) << 1) | ((w >> 1) & _EVEN_BITS)
    return (v & swapped).bit_count() & 1


def _transvection(k: int, v: int) -> int:
    return v ^ k if _sympl_inner(k, v) else v


def _find_transvection(x: int, y: int) -> tuple[int, int]:
    """Vectors h0, h1 with ``y = Z_h0 Z_h1 x`` (Z the transvection map)."""
    if x == y:
        return 0, 0
    if _sympl_inner(x, y):
        return x ^ y, 0
    # (shift, x pair, y pair) per qubit; a pair is x_j + 2 z_j
    pairs = [(s, (x >> s) & 3, (y >> s) & 3) for s in range(0, (x | y).bit_length(), 2)]
    for s, xp, yp in pairs:
        if xp and yp:
            # equal pairs take one that anticommutes with both
            zp = xp ^ yp or (3 if xp != 3 else 2)
            return x ^ (zp << s), y ^ (zp << s)
    # else one pair anticommuting with x's first nonzero pair where y has
    # none, and one with y's first nonzero pair where x has none
    z = 0
    for s, xp, yp in pairs:
        if xp and not yp:
            z |= (1 if xp == 2 else 2) << s
            break
    for s, xp, yp in pairs:
        if yp and not xp:
            z |= (1 if yp == 2 else 2) << s
            break
    return x ^ z, y ^ z


def num_symplectics(n: int) -> int:
    """|Sp(2n, 2)| = prod_{j<=n} 2^(2j-1) (4^j - 1)."""
    x = 1
    for j in range(1, n + 1):
        x *= (1 << (2 * j - 1)) * ((1 << (2 * j)) - 1)
    return x


def _symplectic_matrix(i: int, n: int) -> list[int]:
    """The i-th 2n x 2n binary symplectic matrix, as its rows (the images
    of the basis vectors)."""
    nn = 2 * n
    s = (1 << nn) - 1
    f1 = (i % s) + 1
    i //= s
    tv0, tv1 = _find_transvection(1, f1)
    bits = i % (1 << (nn - 1))
    i //= 1 << (nn - 1)
    h0 = _transvection(tv1, _transvection(tv0, 1 | ((bits >> 1) << 2)))
    if bits & 1:
        f1 = 0
    g = [1, 2]
    if n != 1:
        g += [row << 2 for row in _symplectic_matrix(i, n - 1)]
    return [
        _transvection(f1, _transvection(h0, _transvection(tv1, _transvection(tv0, row))))
        for row in g
    ]


def _clifford_from_tableau(rows: list[int], signs: int, parity: np.ndarray, step: int) -> np.ndarray:
    """Every ``step``-th column (a power of 2) of the dense unitary mapping
    X_j, Z_j to the signed Paulis of the symplectic rows (row 2j for X_j,
    row 2j+1 for Z_j; bit r of ``signs`` negates row r).  ``parity[c]`` is
    (-1)^popcount(c) over the 2^n basis indices.

    No Pauli is built densely.  A signed Pauli i^#Y (-1)^sign X^x Z^z
    (qubit 0 the most significant bit of the masks x and z) is a row
    permutation and a phase: ``P @ M = phase[:, None] * M[perm]`` with
    ``perm = r ^ x`` and ``phase = i^#Y (-1)^(sign + popcount(z & perm))``.
    The image of |0...0> is the first nonzero column of the projector
    onto the joint +1 eigenspace of the Z images, normalised.  A column
    goes through the ``(1 + Z') / 2`` factors on its own, so columns are
    tried one by one and the 2^n x 2^n projector is never built.  The
    other columns follow by doubling: for qubit j, the columns with j's
    bit set are X'_j applied to those already built.  The kept columns are
    0 on the last log2(``step``) qubits, so only the first m are doubled;
    every entry, column 0 and so the phase have the whole unitary's bits.
    """
    n = len(rows) // 2
    r = np.arange(1 << n)

    def image(row: int) -> tuple[np.ndarray, np.ndarray]:
        v, x, z, ys = rows[row], 0, 0, 0
        for j in range(n):
            xj, zj = (v >> 2 * j) & 1, (v >> (2 * j + 1)) & 1
            x |= xj << (n - 1 - j)
            z |= zj << (n - 1 - j)
            ys += xj & zj
        perm = r ^ x
        i_power = ys + 2 * ((signs >> row) & 1)
        return perm, (1, 1j, -1, -1j)[i_power % 4] * parity[z & perm]

    z_images = [image(2 * j + 1) for j in range(n)]
    for col in r.tolist():
        u0 = (r == col).astype(complex)
        for perm, phase in z_images:
            u0 = (u0 + phase * u0[perm]) / 2
        if np.linalg.norm(u0) > 1e-9:
            break
    m = n - (step.bit_length() - 1)
    u = np.empty((1 << n, 1 << m), dtype=complex)
    u[:, 0] = u0 / np.linalg.norm(u0)
    for j in range(m):
        perm, phase = image(2 * j)
        built = r[: 1 << j] << (m - j)
        u[:, built | (1 << (m - 1 - j))] = phase[:, None] * u[perm[:, None], built]
    return canonical_phase(u) + 0.0  # normalize -0.0


#: Bytes of column blocks one :class:`IndexedCliffordDesign` keeps (1,024
#: elements or 8,192 trap-zero blocks at 3,3); they go with the design.
ELEMENT_CACHE_BYTES = 64 << 20


class IndexedCliffordDesign(UnitaryDesign):
    """Clifford group accessed through the canonical (symplectic, sign)
    index without enumeration; supports 1..6 qubits.  It builds only the
    block ``U_i[:, ::step]`` it hands out (``element(i)`` at step 1), kept by
    ``(i, step)`` while its own blocks fit in :data:`ELEMENT_CACHE_BYTES`."""

    def __init__(self, qubits: int):
        if not 1 <= qubits <= 6:
            raise ValueError("indexed Clifford access supports 1..6 qubits")
        self.qubits = qubits
        self._num_sympl = num_symplectics(qubits)
        self.cardinality = self._num_sympl * (1 << (2 * qubits))
        self.design_id = f"clifford-ks-q{qubits}-{GENERATOR_SET_VERSION}"
        self._parity = np.array([(-1) ** c.bit_count() for c in range(1 << qubits)])
        self._cache: dict[tuple[int, int], np.ndarray] = {}
        self._cache_bytes = 0
        self.index_sums = {}

    def _columns(self, i: int, step: int) -> np.ndarray:
        """``U_i[:, ::step]``, read-only, for a checked index."""
        cached = self._cache.get((i, step))
        if cached is not None:
            return cached
        sympl_idx, sign_idx = i % self._num_sympl, i // self._num_sympl
        u = _clifford_from_tableau(_symplectic_matrix(sympl_idx, self.qubits), sign_idx, self._parity, step)
        u.setflags(write=False)
        if self._cache_bytes + u.nbytes <= ELEMENT_CACHE_BYTES:
            self._cache[i, step] = u
            self._cache_bytes += u.nbytes
        return u

    def element(self, i: int) -> np.ndarray:
        return self._columns(self._index(i), 1)

    def conj_columns(self, indices, step: int) -> np.ndarray:
        """One block per distinct index; an array's (none for an empty one) are stacked and gathered."""
        if not isinstance(indices, np.ndarray):
            return self._columns(self._index(indices), step).conj()
        distinct, inverse = np.unique(indices, return_inverse=True)
        blocks = np.array([self._columns(self._index(i), step) for i in distinct.tolist()], dtype=complex)
        return blocks.reshape(-1, 1 << self.qubits, (1 << self.qubits) // step).conj()[inverse.reshape(indices.shape)]


@lru_cache(maxsize=None)
def clifford_design(qubits: int) -> UnitaryDesign:
    """Enumerated group at <= 2 qubits, indexed access at 3..6: one design
    per qubit count for the life of the process, shared by its schemes."""
    if qubits <= 2:
        return clifford_enumerate(qubits)
    return IndexedCliffordDesign(qubits)


def random_unitary_set(
    qubits: int, size: int, rng: np.random.Generator
) -> EnumeratedDesign:
    """Haar-random unitaries as a (non-design) set; the negative control
    for the frame-potential certificate."""
    from .qmath import haar_unitary

    dim = 1 << qubits
    elements = np.stack(
        [canonical_phase(haar_unitary(dim, rng)) for _ in range(size)]
    )
    return EnumeratedDesign(qubits, elements, f"haar-set-q{qubits}-n{size}")


# ---------------------------------------------------------------------------
# Frame potential
# ---------------------------------------------------------------------------


#: Sampled pairs per gathered block in :func:`frame_potential`.
_PAIR_CHUNK = 1 << 16
#: Overlaps per block of the exhaustive Gram in :func:`frame_potential`
#: (16 MiB of complex at most).
_GRAM_BLOCK = 1 << 20


def frame_potential(
    design: UnitaryDesign,
    samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Pair-averaged fourth overlap moment (1/N^2) sum |Tr(U†V)|^4.

    Exhaustive over all N^2 ordered pairs when ``samples`` is None (needs
    an enumerated design); otherwise a Monte Carlo estimate over uniformly
    sampled index pairs.  Exact 2-designs give exactly 2 in any dimension.
    The enumerated Clifford groups have the exact value from
    :func:`clifford_frame_potential`; the exhaustive sum is for sets that
    are not groups.
    """
    if samples is None:
        if not isinstance(design, EnumeratedDesign):
            raise ValueError("exhaustive frame potential needs an enumerated design")
        flat = design.elements().reshape(design.cardinality, -1)
        total = 0.0
        block = max(1, _GRAM_BLOCK // design.cardinality)
        for lo in range(0, design.cardinality, block):
            overlaps = flat[lo : lo + block].conj() @ flat.T
            total += float(np.sum(np.abs(overlaps) ** 4))
        return total / design.cardinality**2
    if not is_positive_int(samples):
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if rng is None:
        raise ValueError("sampled frame potential needs an rng")
    ii = uniform_index(design.cardinality, rng, samples)
    jj = uniform_index(design.cardinality, rng, samples)
    if isinstance(design, EnumeratedDesign):
        # gathered rows in bounded chunks: 10^6 pairs at once take ~500 MB
        flat = design.elements().reshape(design.cardinality, -1)
        overlaps = np.empty(samples, dtype=complex)
        for lo in range(0, samples, _PAIR_CHUNK):
            rows = slice(lo, lo + _PAIR_CHUNK)
            overlaps[rows] = np.einsum("ni,ni->n", flat[ii[rows]].conj(), flat[jj[rows]])
    else:
        overlaps = np.array(
            [
                np.vdot(design.element(int(a)), design.element(int(b)))
                for a, b in zip(ii, jj)
            ]
        )
    return float(np.mean(np.abs(overlaps) ** 4))


def clifford_frame_potential(qubits: int) -> float:
    """Exact frame potential of the enumerated Clifford group on 1 or 2
    qubits, as (1/|G|) sum_g |Tr g|^4.

    In a group (here modulo phase, which ``|Tr|`` ignores) ``U†V`` runs
    over every element once as ``V`` does, for each ``U``, so the N^2
    pair sum of :func:`frame_potential` collapses to N traces.
    """
    if qubits not in (1, 2):
        raise ValueError("the exact frame potential needs an enumerated group: qubits in {1, 2}")
    traces = np.trace(clifford_design(qubits).elements(), axis1=1, axis2=2)
    return float(np.mean(np.abs(traces) ** 4))
