"""Dense complex linear algebra over explicit multi-qubit registers.

States, operators, channels, measurement and trace distance, all as plain
numpy arrays wrapped in lightly validated containers.  Everything is dense
and capped at 12 total qubits (:data:`QUBIT_CAP`), which keeps the whole
library inside comfortable double-precision territory.

Validation
----------
Every container (states, operators and channels) is validated once, in
its constructor; a state's qubit count is read from its array's size,
never passed.  Operations trust the containers they are given and do not
re-check them; :func:`register_array` is the one check of a register
against a measurement or a scheme.  A measurement is the two-outcome one
that an isometry ``V`` defines (outcome 1 is its range), given as the
plain array ``V†``, whose orthonormal rows are trusted.  It acts on a
whole register: a party that holds its own register is measured on that
register alone, never on a joint state with the registers of others.
Results that are states by construction, the outer product of
:meth:`PureState.density` and the post-states of the one post-state
builder, :func:`measure_and_collapse` (called only where a caller keeps
the register), are not re-checked either (no eigenvalue decomposition,
no norm); nor are the authentication scheme's results in ``qas``: its
encoding isometry (a read-only array, columns of a design unitary, never
a container), the encoded states of ``auth`` and the renormalized accept
branch that ``verify`` returns.  The public constructors keep every
check.  The weight ``||V† psi||^2`` or ``Tr(V† rho V)`` of an isometry,
or of a stack, has one kernel, :func:`accept_branches`, and every
sampled bit one rule, :func:`outcome_at`: ``Generator.choice``'s
arithmetic without its re-checks, at a given uniform, on floats and
elementwise on arrays alike.  :func:`draw_outcome` is the rule at one
``rng.random()``; a game decides a block of trials' outcomes at uniforms
its trials drew earlier.

Memory
------
Do not cache objects of the full register's size (``2**n`` amplitudes or
``2**n x 2**n`` matrices) by point or by challenge: at 12 qubits one
density operator is 256 MB.  Cache the small operators instead.

Register ordering convention
----------------------------
Qubit 0 is the *leftmost* register factor and the *most significant* bit
of a basis-state index.  Concretely, the basis state ``|b0 b1 ... b_{q-1}>``
sits at index ``sum(b_i * 2**(q-1-i))``, so ``numpy.kron(a, b)`` places
``a``'s register in front.

Concurrency
-----------
All container types are immutable after construction and safe to share.
Operations are pure functions.  The only stateful object is a
``numpy.random.Generator``; never share one between threads.  Derive
per-worker generators with :func:`spawn_rng`, which maps ``(seed, *key)``
to an independent stream deterministically (so parallel and serial
schedules see identical randomness).  A game run's trial generators
come from :func:`spawn_rngs`, which derives them in blocks of
:data:`SPAWN_BLOCK` trials: trial ``i``'s generator equals
``spawn_rng(seed, i)`` bit for bit, but its bit generator carries a
non-spawnable seed stub in place of a ``SeedSequence``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Structural identities (norms, traces, unitarity) hold to this tolerance.
ATOL = 1e-9
#: Hard cap on total qubits of any constructed object; everything in this
#: library fits comfortably below it.
QUBIT_CAP = 12
#: A measurement outcome less likely than this counts as impossible: it is
#: never sampled, and its branch never renormalized.  A probability computed
#: from a unit vector or unit-trace operator of dimension d carries a rounding
#: error of at most about d * 2.2e-16, below this up to :data:`QUBIT_CAP`.
NEGLIGIBLE = 1e-12


class DimensionMismatchError(ValueError):
    """Operands have incompatible Hilbert-space dimensions."""


class QubitCapError(ValueError):
    """An operation would exceed the total-qubit cap."""


def _check_cap(qubits: int) -> None:
    if qubits > QUBIT_CAP:
        raise QubitCapError(f"{qubits} qubits exceeds the cap of {QUBIT_CAP}")


def _qubits_for_dim(dim: int) -> int:
    q = int(dim).bit_length() - 1
    if dim <= 0 or (1 << q) != dim:
        raise DimensionMismatchError(f"dimension {dim} is not a power of two")
    return q


def _frozen(a: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from ``(seed, *key)``.

    The split function: the child is seeded by
    ``SeedSequence(entropy=seed, spawn_key=key)``.  Children with distinct
    keys are statistically independent, and the derivation depends only on
    the pair ``(seed, key)``, not on call order.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


#: Trials whose generators :func:`spawn_rngs` derives in one vectorised
#: step; a power of two, so no block straddles 2**32.
SPAWN_BLOCK = 256

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


class _TrialSeed:
    """A non-spawnable seed stub: hands ``PCG64`` the four state words
    that ``SeedSequence(entropy=seed, spawn_key=(i,))`` would generate.

    :func:`spawn_rngs` registers it as a
    ``numpy.random.bit_generator.ISeedSequence`` on first use, not at
    import, since numpy loads ``numpy.random`` lazily.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a trial seed holds exactly 4 uint64 words")
        return self.words


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words (``hashmix`` with ``_MULT_A``,
    the output hash of ``generate_state`` with ``_MULT_B``); returns the
    hashed words and the next constant."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value *= np.uint32(const)
    return value ^ value >> 16, const


def _trial_states(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4,
    np.uint64)`` for every ``i`` in ``[start, stop)``, as rows, for
    ``0 <= start <= stop <= 2**64``.

    The seed's words fill the 4-word pool first (``SeedSequence(seed).pool``:
    when the seed is shorter than the pool, its zero padding hashes as the
    pool's own fill does), and each hash call advances one multiplier, so
    only the index words are mixed here, all indices at once, in uint32
    arithmetic.
    """
    pool = np.random.SeedSequence(seed).pool
    seed_words = max(1, -(-seed.bit_length() // 32))
    # 4 fill and 12 cross-mix hash calls, then 4 per seed word past the pool
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, seed_words - 4), 1 << 32) & _MASK32
    index = np.arange(start, stop, dtype=np.uint64)
    mixer = [np.full(index.size, word, dtype=np.uint32) for word in pool]
    for j in range(max(1, -(-(stop - 1).bit_length() // 32))):
        word = (index >> np.uint64(32 * j) & np.uint64(_MASK32)).astype(np.uint32)
        for dst in range(4):
            hashed, const = _hash(word, const, _MULT_A)
            mixed = np.uint32(_MIX_L) * mixer[dst] - np.uint32(_MIX_R) * hashed
            mixed ^= mixed >> 16
            # an index has only as many words as it needs
            mixer[dst] = mixed if j == 0 else np.where(index >> np.uint64(32 * j) > 0, mixed, mixer[dst])
    out = np.empty((index.size, 8), dtype=np.uint32)
    const = _INIT_B
    for j in range(8):
        out[:, j], const = _hash(mixer[j % 4], const, _MULT_B)
    return out.astype("<u4").view("<u8").astype(np.uint64)


def spawn_rngs(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """Yield ``spawn_rng(seed, i)`` for ``i`` in ``range(trials)``, each a
    fresh generator equal to it bit for bit, derived
    :data:`SPAWN_BLOCK` trials at a time.

    Each block's ``PCG64`` state words come from :func:`_trial_states`;
    numpy seeds the bit generator from them through a non-spawnable stub
    (``Generator.spawn`` raises ``TypeError``).  Memory is O(block).
    """
    np.random.bit_generator.ISeedSequence.register(_TrialSeed)
    for start in range(0, trials, SPAWN_BLOCK):
        for words in _trial_states(seed, start, min(start + SPAWN_BLOCK, trials)):
            yield np.random.Generator(np.random.PCG64(_TrialSeed(words)))


# ---------------------------------------------------------------------------
# Container types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureState:
    """A unit vector over ``qubits`` qubits (length ``2**qubits``)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        _check_cap(_qubits_for_dim(amps.size))
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > ATOL:
            raise ValueError(f"state norm {nrm} is not 1 within {ATOL}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray) -> "PureState":
        """Freeze ``amplitudes`` in place, without the checks.  Only for
        fresh complex vectors that are unit by construction (a branch of a
        validated state divided by the norm computed from that same
        branch, or an isometry applied to a validated state); the bytes
        are those the public constructor would keep."""
        obj = object.__new__(cls)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        amps.setflags(write=False)
        object.__setattr__(obj, "amplitudes", amps)
        return obj

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def qubits(self) -> int:
        return self.dim.bit_length() - 1

    def density(self) -> "DensityOperator":
        """``|psi><psi|``, a density operator by construction (not re-checked)."""
        return DensityOperator._trusted(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """A density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen(np.asarray(self.matrix))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("density operator must be square")
        _check_cap(_qubits_for_dim(mat.shape[0]))
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise ValueError("density operator is not Hermitian within tolerance")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace {tr} is not 1 within {ATOL}")
        if np.min(np.linalg.eigvalsh(mat)) < -ATOL:
            raise ValueError("density operator has a negative eigenvalue")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "DensityOperator":
        """Freeze ``matrix`` in place, without the checks.  Only for fresh
        complex matrices that are density operators by construction from
        validated ones (the outer product of a unit vector, a conjugation
        by an isometry, or a renormalized projection of one); the bytes
        are those the public constructor would keep."""
        obj = object.__new__(cls)
        mat = np.asarray(matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(obj, "matrix", mat)
        return obj

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def qubits(self) -> int:
        return self.dim.bit_length() - 1


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving channel ``rho -> sum_i K_i rho K_i†`` given by
    its Kraus operators, which satisfy ``sum K†K = I``."""

    kraus_ops: tuple

    def __post_init__(self):
        ops = tuple(_frozen(np.asarray(k)) for k in self.kraus_ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise DimensionMismatchError("Kraus operators must share one shape")
        gram = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(gram - np.eye(shape[1]))) > ATOL:
            raise ValueError("Kraus operators do not sum to identity")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus_ops[0].shape[1]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def ket(bits: str) -> PureState:
    """Computational basis state, e.g. ``ket('01')`` for ``|01>``."""
    q = len(bits)
    _check_cap(q)
    idx = int(bits, 2) if q else 0
    amps = np.zeros(1 << q, dtype=complex)
    amps[idx] = 1.0
    return PureState(amps)


def zero_state(qubits: int) -> PureState:
    return ket("0" * qubits)


def maximally_mixed(qubits: int) -> DensityOperator:
    _check_cap(qubits)
    d = 1 << qubits
    return DensityOperator(np.eye(d) / d)


def random_pure_state(qubits: int, rng: np.random.Generator) -> PureState:
    _check_cap(qubits)
    d = 1 << qubits
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def random_density(qubits: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    _check_cap(qubits)
    d = 1 << qubits
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def partial_trace(op: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced state on the kept qubits (ascending order), trace preserved.

    An empty ``keep`` set yields the 1x1 operator holding the full trace.
    """
    keep = sorted(set(keep))
    q = op.qubits
    if any(i < 0 or i >= q for i in keep):
        raise DimensionMismatchError(f"keep indices must lie in [0, {q})")
    traced = [i for i in range(q) if i not in keep]
    t = op.matrix.reshape((2,) * (2 * q))
    # Contract each traced qubit's row index with its column index.
    for i in reversed(traced):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    d = 1 << len(keep)
    return DensityOperator(t.reshape(d, d))


def trace_norm(x: np.ndarray) -> float | np.ndarray:
    """Schatten-1 norm: the sum of singular values, a ``float`` for one
    matrix and one per matrix of a ``(..., d, d)`` stack (the SVD gufunc
    runs the one-matrix routine on each, so the bits are the same)."""
    norms = np.linalg.svd(np.asarray(x), compute_uv=False).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def trace_distance(x, y) -> float | np.ndarray:
    """Half the trace norm of the difference, for arbitrary linear operators
    or per matrix of two equal-shaped stacks.

    Symmetric, satisfies the triangle inequality, and lies in [0, 1] for
    pairs of density operators.
    """
    mx = x.matrix if hasattr(x, "matrix") else np.asarray(x)
    my = y.matrix if hasattr(y, "matrix") else np.asarray(y)
    if mx.shape != my.shape or mx.ndim < 2 or mx.shape[-1] != mx.shape[-2]:
        raise DimensionMismatchError("trace distance needs equal square shapes")
    return 0.5 * trace_norm(mx - my)


def state_distance(a, b) -> float:
    """Trace distance between two states given in any representation."""
    da = a.density() if isinstance(a, PureState) else a
    db = b.density() if isinstance(b, PureState) else b
    return trace_distance(da, db)


def register_array(state, dim: int) -> np.ndarray:
    """``state``, checked to be a state of dimension ``dim`` (the one
    register check), as an array: a pure state's amplitudes as a
    ``(dim, 1)`` column, a density matrix."""
    if not isinstance(state, (PureState, DensityOperator)):
        raise TypeError("expected PureState or DensityOperator")
    if state.dim != dim:
        raise DimensionMismatchError(f"state of dimension {state.dim} where {dim} is expected")
    return state.amplitudes[:, None] if isinstance(state, PureState) else state.matrix


def accept_branches(m: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(b, p1)``, unclipped, through a matrix ``m`` or a stack of them
    (broadcast as ``matmul`` does): ``b = m e`` and ``p1 = ||b||^2`` for
    columns ``e``, ``b = m e m†`` and ``p1 = Tr b`` for density matrices.
    With ``m = V†`` for an isometry ``V``, ``p1`` is the weight of the
    range of ``V``: the one place that weight is computed."""
    if m.ndim < 2:
        raise DimensionMismatchError("a measurement is given as the matrix V†, not a vector")
    if e.shape[-1] == 1:
        b = m @ e
        return b, np.vecdot(b, b, axis=-2)[..., 0].real
    b = m @ e @ m.conj().swapaxes(-1, -2)
    return b, np.trace(b, axis1=-2, axis2=-1).real


def outcome_at(p1, u):
    """The outcome, at the uniform ``u`` of ``rng.random()``, of
    ``rng.choice(2, p=probs)`` without its checks (elementwise on arrays),
    for ``probs = [1 - p1, p1]`` with entries below :data:`NEGLIGIBLE` set
    to 0 (by a mask: a negative one becomes -0.0, which compares as 0.0
    does) and renormalized."""
    p0 = 1.0 - p1
    k0 = p0 * (p0 >= NEGLIGIBLE)
    k1 = p1 * (p1 >= NEGLIGIBLE)
    total = k0 + k1
    q0, q1 = k0 / total, k1 / total
    return q0 / (q0 + q1) <= u


def draw_outcome(p1: float, rng: np.random.Generator) -> int:
    """:func:`outcome_at` at one ``rng.random()`` draw, so the outcome and
    the generator's state afterwards are those of ``Generator.choice``."""
    return int(outcome_at(p1, rng.random()))


def measure_projective(state, accept: np.ndarray, rng: np.random.Generator) -> int:
    """Measure ``{I - V V†, V V†}`` on a whole register, for an isometry
    ``V`` given as ``accept = V†`` (orthonormal rows, trusted, acting on
    all of the state's qubits; outcome 1 is the range of ``V``): the
    outcome :func:`draw_outcome` draws at the weight from
    :func:`accept_branches`, with no post-state."""
    return draw_outcome(float(accept_branches(accept, register_array(state, accept.shape[-1]))[1]), rng)


def measure_and_collapse(state, accept: np.ndarray, rng: np.random.Generator):
    """``(outcome, post)``: :func:`measure_projective`'s outcome and its
    post-state, from one branch: the branch divided by its norm or trace;
    pure states stay pure.  A density branch is kept as its Hermitian
    part, since dividing by a weight ``p`` rounds each entry by about
    ``d * 2.2e-16 / p``."""
    b, p1 = accept_branches(accept, register_array(state, accept.shape[-1]))
    outcome = draw_outcome(float(p1), rng)
    if isinstance(state, PureState):
        # V V† psi, conjugating vectors rather than the matrix
        branch = (b[:, 0].conj() @ accept).conj()
        if outcome == 0:
            branch = state.amplitudes - branch
        return outcome, PureState._trusted(branch / np.sqrt(np.vdot(branch, branch).real))
    v = accept.conj().T
    if outcome == 1:
        # Tr(V b V†) = Tr(b): the weight already computed
        m = v @ (b / p1) @ accept
    else:
        q = np.eye(state.dim) - v @ accept
        m = q @ state.matrix @ q
        m = m / m.trace().real
    return outcome, DensityOperator._trusted((m + m.conj().T) / 2)


def apply_channel(ch: KrausChannel, state: DensityOperator):
    """``sum_i K_i rho K_i†``."""
    rho = state.density() if isinstance(state, PureState) else state
    if rho.dim != ch.dim_in:
        raise DimensionMismatchError("state does not match channel input")
    return DensityOperator(sum(k @ rho.matrix @ k.conj().T for k in ch.kraus_ops))


def embed_operator(op: np.ndarray, positions: Sequence[int], total_qubits: int) -> np.ndarray:
    """Lift an operator on the given qubit positions to the full register.

    ``positions`` lists which global qubits the operator's own qubits map
    to, in order.  The remaining qubits get identity.
    """
    op = op.matrix if hasattr(op, "matrix") else np.asarray(op, dtype=complex)
    k = _qubits_for_dim(op.shape[0])
    if len(positions) != k:
        raise DimensionMismatchError("operator size does not match positions")
    if len(set(positions)) != k or any(p < 0 or p >= total_qubits for p in positions):
        raise ValueError("positions must be distinct and in range")
    rest = [i for i in range(total_qubits) if i not in positions]
    full = np.kron(op, np.eye(1 << len(rest), dtype=complex))
    # Current qubit order is positions + rest; permute into 0..n-1.
    order = list(positions) + rest
    perm = [order.index(i) for i in range(total_qubits)]
    t = full.reshape((2,) * (2 * total_qubits))
    t = t.transpose(perm + [total_qubits + p for p in perm])
    d = 1 << total_qubits
    return t.reshape(d, d)
