"""Trap-augmented total quantum authentication.

A scheme on ``m`` message qubits appends ``t`` trap qubits in |0...0> and
applies a unitary drawn from a 2-design on ``m + t`` qubits, selected by
an almost-uniform map from the ``k``-bit key space into design indices:

    Auth_key |psi>  =  U_{f(key)} (|psi> (x) |0^t>)

Verification undoes the unitary for the claimed key and checks that every
trap qubit reads zero; on acceptance the decoded message register is
returned, on rejection the maximally mixed state.

A scheme's ``epsilon`` is the total-authentication parameter this
construction is entitled to claim: the 2-design term ``2^((6-t)/3)`` plus
the key-remapping penalty ``epsilon_prime`` of the mod map.  At desk scale
(small ``t``) this honestly exceeds 1/2; downstream results that assume
``epsilon <= 1/2`` gate themselves on that value rather than
pretending it is small.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .designs import (
    EnumeratedDesign,
    EpsUniformMap,
    UnitaryDesign,
    clifford_design,
    irreducible_poly,
)
from .qmath import (
    NEGLIGIBLE,
    DensityOperator,
    DimensionMismatchError,
    PureState,
    QUBIT_CAP,
    QubitCapError,
    accept_branch,
    draw_outcome,
    maximally_mixed,
)

#: Exact key sums build at most this many design elements, those the keys reach.
MAX_EXACT_INDICES = 1 << 14


@dataclass(frozen=True)
class QasScheme:
    """Immutable bundle of parameters plus the design and key map."""

    message_qubits: int
    trap_qubits: int
    key_bits: int
    design: UnitaryDesign
    key_map: EpsUniformMap

    @property
    def epsilon(self) -> float:
        """The total-authentication parameter: the design term plus the
        key map's ``epsilon_prime``."""
        return design_epsilon(self.trap_qubits) + float(self.key_map.epsilon_prime)

    @property
    def total_qubits(self) -> int:
        return self.message_qubits + self.trap_qubits

    @property
    def message_dim(self) -> int:
        return 1 << self.message_qubits

    @property
    def total_dim(self) -> int:
        return 1 << self.total_qubits

    @property
    def scheme_id(self) -> str:
        return (
            f"qas-m{self.message_qubits}-t{self.trap_qubits}"
            f"-k{self.key_bits}-{self.design.design_id}"
        )

    def key_index(self, key: int) -> int:
        """Design index selected by a key (the almost-uniform map)."""
        return self.key_map.apply(key)


def design_epsilon(trap_qubits: int) -> float:
    """Total-authentication parameter granted by a 2-design with t traps."""
    return 2.0 ** ((6 - trap_qubits) / 3)


def t_opt(message_qubits: int, key_bits: int) -> float:
    """Trap count minimizing the combined epsilon bound, as a real number.

    Bookkeeping only: for honest parameters the optimum far exceeds the
    desk-scale qubit cap, so schemes take (m, t, k) directly.
    """
    return (12 - 3 * math.log2(15) + 3 * key_bits - 15 * message_qubits) / 16


def existence_epsilon(message_qubits: int, key_bits: int) -> float:
    """The closed-form bound 5 * 2^((5m - k)/16) achieved at t = floor(t_opt)."""
    return 5.0 * 2.0 ** ((5 * message_qubits - key_bits) / 16)


def build_scheme(message_qubits: int, trap_qubits: int, key_bits: int) -> QasScheme:
    """Assemble a scheme over the Clifford group on ``message_qubits +
    trap_qubits`` qubits."""
    if any(isinstance(v, bool) for v in (message_qubits, trap_qubits, key_bits)):
        raise ValueError("qubit counts and the key length are integers, not bools")
    if message_qubits < 1:
        raise ValueError("need at least one message qubit")
    if trap_qubits < 1:
        raise ValueError("need at least one trap qubit")
    if key_bits < 1:
        raise ValueError("need at least one key bit")
    total = message_qubits + trap_qubits
    if total > QUBIT_CAP:
        raise QubitCapError(f"{total} qubits exceeds the cap of {QUBIT_CAP}")
    design = clifford_design(total)
    key_map = EpsUniformMap(key_bits, design.cardinality)
    return QasScheme(message_qubits, trap_qubits, key_bits, design, key_map)


# ---------------------------------------------------------------------------
# Encoding isometries
# ---------------------------------------------------------------------------


def _auth_matrix(scheme: QasScheme, key: int) -> np.ndarray:
    u = scheme.design.element(scheme.key_index(key))
    # Columns of U (x) embedding |v> -> |v>|0^t>: message is the leftmost
    # (most significant) register, so |v>|0^t> sits at index v * 2^t.
    return u[:, :: 1 << scheme.trap_qubits]


def auth_isometry(scheme: QasScheme, key: int) -> np.ndarray:
    """``A_key``, the encoding isometry for one key, message space into Y,
    as a contiguous read-only copy of the design element's columns: the
    copy is kept because products with the strided view round
    differently.  Not re-checked (``A† A = I`` holds by construction)."""
    if not 0 <= key < (1 << scheme.key_bits):
        raise ValueError("key outside the key space")
    a = np.array(_auth_matrix(scheme, key))
    a.setflags(write=False)
    return a


def adjoint_isometry(scheme: QasScheme, key: int) -> np.ndarray:
    """``A_key†``, the adjoint of the encoding isometry, as a
    ``(2**m, 2**(m+t))`` array.  For an enumerated design it is a
    read-only view of one element of the conjugated trap-zero column
    stack that :func:`acceptance_by_index` uses, so no call copies;
    otherwise it is built from the design's element."""
    design = scheme.design
    if isinstance(design, EnumeratedDesign):
        return _trap_zero_columns_conj(design, 1 << scheme.trap_qubits)[scheme.key_index(key)].T
    return _auth_matrix(scheme, key).conj().T


def auth(scheme: QasScheme, key: int, state):
    """Authenticate a message state: ``A psi`` for a pure state, ``A rho A†``
    for a density operator, with ``A`` from :func:`auth_isometry`.  Both
    are states by construction and are not re-checked."""
    a = auth_isometry(scheme, key)
    if not isinstance(state, (PureState, DensityOperator)):
        raise TypeError("expected PureState or DensityOperator")
    if state.dim != scheme.message_dim:
        raise DimensionMismatchError("state is not on the message space")
    if isinstance(state, PureState):
        return PureState._trusted(a @ state.amplitudes)
    return DensityOperator._trusted(a @ state.matrix @ a.conj().T)


# ---------------------------------------------------------------------------
# Verification channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of running the verification channel.

    ``accepted`` is a sampled flag (None when the channel was evaluated
    analytically rather than sampled).  ``message_state`` is the decoded
    state on the accept branch, or the maximally mixed state on reject.
    ``accept_probability`` is exact, sampled or not.
    """

    accepted: bool | None
    message_state: DensityOperator
    accept_probability: float


def _on_y(scheme: QasScheme, state):
    """``state``, checked to be a state on the authenticated space."""
    if not isinstance(state, (PureState, DensityOperator)):
        raise TypeError("expected PureState or DensityOperator")
    if state.dim != scheme.total_dim:
        raise DimensionMismatchError("state is not on the authenticated space")
    return state


def accept_probability(scheme: QasScheme, key: int, state) -> float:
    """Probability that verification with this key accepts the state,
    ``||A† psi||^2`` or ``Tr(A† rho A)`` (:func:`~qlease.qmath.accept_branch`)."""
    return accept_branch(_on_y(scheme, state), adjoint_isometry(scheme, key))[0]


def verify(
    scheme: QasScheme,
    key: int,
    state,
    rng: np.random.Generator | None = None,
) -> VerifyOutcome:
    """The verification channel.

    Implements ``rho -> A† rho A (x) |Acc><Acc|
    + Tr[(I - A A†) rho] (I / 2^m) (x) |Rej><Rej|``.  With an ``rng`` the
    accept/reject branch is sampled at its analytic probability (by
    :func:`~qlease.qmath.draw_outcome`, the rule of every sampled bit)
    and the corresponding normalized branch returned; without one the
    outcome stays unsampled (``accepted=None``) and the accept-branch
    decode is reported alongside the exact probability, unless that
    probability is below :data:`~qlease.qmath.NEGLIGIBLE`.

    The accept branch is :func:`~qlease.qmath.accept_branch` through
    ``A†`` (:func:`adjoint_isometry`).  A pure state's ``b = A† psi``
    decodes as ``outer(b, conj(b)) / p``, exactly Hermitian and rank one
    at any ``p``; a density operator's ``b = A† rho A`` as its Hermitian
    part ``(b + b†) / (2p)``, since dividing by ``p`` rounds each entry by
    about ``d * 2.2e-16 / p``.  The state is validated where
    it was built, the decoded branch is not re-checked, and the maximally
    mixed state is built only when it is returned.
    """
    p, b = accept_branch(_on_y(scheme, state), adjoint_isometry(scheme, key))
    p = min(max(p, 0.0), 1.0)
    accepted = None if rng is None else bool(draw_outcome(p, rng))
    if accepted or (accepted is None and p >= NEGLIGIBLE):
        decoded = np.outer(b, b.conj()) / p if b.ndim == 1 else (b + b.conj().T) / (2 * p)
        return VerifyOutcome(accepted, DensityOperator._trusted(decoded), p)
    return VerifyOutcome(accepted, maximally_mixed(scheme.message_qubits), p)


# ---------------------------------------------------------------------------
# Wrong-key averages
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _trap_zero_columns_conj(design: EnumeratedDesign, step: int) -> np.ndarray:
    """The conjugated columns of every element at which the traps read
    zero, ``elements()[:, :, ::step].conj()``, read-only."""
    cols = design.elements()[:, :, ::step].conj()
    cols.setflags(write=False)
    return cols


def acceptance_by_index(scheme: QasScheme, state: PureState) -> np.ndarray:
    """Acceptance probability of a pure state for every index of an
    enumerated design, from its trap-zero columns conjugated once per design
    and trap count.  It serves values not linear in acceptance, such as the
    reusability damage ``sum_j w_j sqrt(a_j (1 - a_j))``; a linear value is
    one trace (:func:`summed_acceptance`, :func:`avg_design_accept`)."""
    if isinstance(_on_y(scheme, state), DensityOperator):
        raise TypeError("per-index acceptance takes a pure state")
    design = scheme.design
    if not isinstance(design, EnumeratedDesign):
        raise ValueError("exact per-index acceptance needs an enumerated design")
    v = np.einsum("nji,j->ni", _trap_zero_columns_conj(design, 1 << scheme.trap_qubits), state.amplitudes)
    return np.einsum("ni,ni->n", v.conj(), v).real


#: Index-summed operators by design, then by scheme shape: (m, t, k) for a
#: key sum, (m, t) for the design sum.  An entry goes with its design, so no
#: cache keeps an indexed design's elements alive.
_KEY_SUMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _index_sum(scheme: QasScheme, state, over_keys: bool) -> float:
    """``psi† S psi`` or ``Tr(S rho)`` for ``S = sum_j c_j A_j A_j†`` over
    design indices j: the key sum ``M = sum_x A_x A_x†`` (the min(2^k, |B|)
    indices the keys reach, at their preimage counts) or the design sum
    ``D`` (every index once).  ``S`` is built once per design and shape,
    read-only; the index count is checked before anything is allocated."""
    state = _on_y(scheme, state)
    design = scheme.design
    n = min(1 << scheme.key_bits, design.cardinality) if over_keys else design.cardinality
    if n > MAX_EXACT_INDICES:
        raise ValueError(f"exact index sums build at most {MAX_EXACT_INDICES} elements, not {n}")
    sums = _KEY_SUMS.setdefault(design, {})
    shape = (scheme.message_qubits, scheme.trap_qubits) + ((scheme.key_bits,) if over_keys else ())
    if shape not in sums:
        counts = scheme.key_map.preimage_counts().tolist() if over_keys else [1] * n
        s = np.zeros((scheme.total_dim, scheme.total_dim), dtype=complex)
        for j, count in enumerate(counts):
            a = design.element(j)[:, :: 1 << scheme.trap_qubits]
            s += count * (a @ a.conj().T)
        s.setflags(write=False)
        sums[shape] = s
    if isinstance(state, PureState):
        return float((state.amplitudes.conj() @ sums[shape] @ state.amplitudes).real)
    return float(np.einsum("ij,ji->", sums[shape], state.matrix).real)


def summed_acceptance(scheme: QasScheme, state) -> float:
    """Acceptance of ``state`` summed over every key: ``psi† M psi`` or
    ``Tr(M rho)`` for the key sum ``M`` of the projectors ``A_x A_x†``."""
    return _index_sum(scheme, state, over_keys=True)


def avg_wrong_key_accept(scheme: QasScheme, state) -> float:
    """Average acceptance of a fixed state over the whole key space,
    exactly (:func:`summed_acceptance` over ``2^k``)."""
    return summed_acceptance(scheme, state) / (1 << scheme.key_bits)


def avg_design_accept(scheme: QasScheme, state) -> float:
    """Average acceptance of a fixed state over the whole design, exactly:
    ``Tr(D rho) / |B|`` for the design sum ``D``, which is ``2^-t`` for a
    2-design."""
    return _index_sum(scheme, state, over_keys=False) / scheme.design.cardinality


# ---------------------------------------------------------------------------
# Parameter record
# ---------------------------------------------------------------------------


def scheme_params(scheme: QasScheme) -> dict:
    """JSON-ready parameter record.

    ``irreducible_poly`` is the field modulus a pairwise-permutation
    wrapper at this key length would use (the scheme itself involves no
    field arithmetic).
    """
    return {
        "m": scheme.message_qubits,
        "t": scheme.trap_qubits,
        "k": scheme.key_bits,
        "design_id": scheme.design.design_id,
        "irreducible_poly": irreducible_poly(scheme.key_bits),
        "epsilon": scheme.epsilon,
        "epsilon_prime": float(scheme.key_map.epsilon_prime),
    }
