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

import math
from dataclasses import dataclass, field

import numpy as np

from .designs import (
    EnumeratedDesign,
    EpsUniformMap,
    UnitaryDesign,
    clifford_design,
    irreducible_poly,
    is_positive_int,
)
from .qmath import (
    NEGLIGIBLE,
    DensityOperator,
    PureState,
    QUBIT_CAP,
    QubitCapError,
    accept_branches,
    draw_outcome,
    maximally_mixed,
    register_array,
)

#: Exact key sums build at most this many design elements, those the keys reach.
MAX_EXACT_INDICES = 1 << 14


@dataclass(frozen=True)
class QasScheme:
    """A scheme is its (m, t, k), by which it compares and hashes: the Clifford
    design on ``m + t`` qubits and the almost-uniform key map onto it follow."""

    message_qubits: int
    trap_qubits: int
    key_bits: int
    design: UnitaryDesign = field(init=False, repr=False, compare=False)
    key_map: EpsUniformMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(map(is_positive_int, (self.message_qubits, self.trap_qubits, self.key_bits))):
            raise ValueError("qubit counts and the key length must be positive integers")
        if self.total_qubits > QUBIT_CAP:
            raise QubitCapError(f"{self.total_qubits} qubits exceeds the cap of {QUBIT_CAP}")
        object.__setattr__(self, "design", clifford_design(self.total_qubits))
        object.__setattr__(self, "key_map", EpsUniformMap(self.key_bits, self.design.cardinality))

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

    def key_index(self, key):
        """Design index selected by a key, or by each of an int array of keys (the almost-uniform map)."""
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
    """The scheme of (m, t, k): ``QasScheme(m, t, k)``."""
    return QasScheme(message_qubits, trap_qubits, key_bits)


# ---------------------------------------------------------------------------
# Encoding isometries
# ---------------------------------------------------------------------------


def _conj_columns(scheme: QasScheme, keys) -> np.ndarray:
    """``conj(A_key)``, C-contiguous, for one key or an array of keys: the one
    reader of a key's columns, every ``2^t``-th of its design element's (the
    message is the most significant register).  Its ``conj()`` and
    ``swapaxes(-1, -2)`` are :func:`auth_isometry` and :func:`adjoint_isometry`."""
    return scheme.design.conj_columns(scheme.key_index(keys), 1 << scheme.trap_qubits)


def auth_isometry(scheme: QasScheme, key: int) -> np.ndarray:
    """``A_key``, the encoding isometry for one key, message space into Y,
    as a contiguous read-only array.  Not re-checked (``A† A = I`` holds
    by construction)."""
    a = _conj_columns(scheme, key).conj()
    a.setflags(write=False)
    return a


def adjoint_isometry(scheme: QasScheme, key) -> np.ndarray:
    """``A_key†``, the adjoint of the encoding isometry, ``(2**m, 2**(m+t))``,
    or a stack of them for an array of keys: for one key a read-only view
    of an enumerated design's column stack, so no call copies."""
    return _conj_columns(scheme, key).swapaxes(-1, -2)


def _decode(adj: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, decoded)`` through stacked adjoints laid out as
    :func:`adjoint_isometry` lays out one: ``b = A† e`` or ``A† e A``,
    ``p = ||b||^2`` or ``Tr b`` clipped to [0, 1], and ``b b† / p`` or the
    Hermitian part ``(b + b†) / (2p)``, or ``I / d`` below ``NEGLIGIBLE``."""
    b, p = accept_branches(adj, e)
    bh = b.conj().swapaxes(-1, -2)
    scale, herm = (1.0, b * bh) if e.shape[-1] == 1 else (2.0, b + bh)
    p = np.clip(p, 0.0, 1.0)
    ok = (p >= NEGLIGIBLE)[..., None, None]
    d = b.shape[-2]
    return p, np.where(ok, herm / (scale * np.where(ok, p[..., None, None], 1.0)), np.eye(d) / d)


def round_trips(scheme: QasScheme, auth_keys, verify_keys, messages) -> tuple[np.ndarray, np.ndarray]:
    """Unsampled ``Verify(Auth(message))`` for messages all pure or all
    density operators, with key arrays that broadcast against the message
    axis: the acceptances and decoded density matrices (:func:`_decode`).
    The one encode/decode route; :func:`auth` and :func:`verify` are its
    one-key case, with the same bits."""
    if len({isinstance(s, PureState) for s in messages}) > 1:
        raise TypeError("messages are all PureState or all DensityOperator")
    m = np.stack([register_array(s, scheme.message_dim) for s in messages])
    auth_cols = _conj_columns(scheme, np.asarray(auth_keys))
    verify_cols = auth_cols if verify_keys is auth_keys else _conj_columns(scheme, np.asarray(verify_keys))
    return _decode(verify_cols.swapaxes(-1, -2), accept_branches(auth_cols.conj(), m)[0])


def auth(scheme: QasScheme, key: int, state):
    """Authenticate a message state: ``A psi`` for a pure state, ``A rho A†``
    for a density operator, with ``A`` from :func:`auth_isometry`.  Both
    are states by construction and are not re-checked."""
    encoded = accept_branches(auth_isometry(scheme, key), register_array(state, scheme.message_dim))[0]
    return PureState._trusted(encoded) if isinstance(state, PureState) else DensityOperator._trusted(encoded)


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


def accept_probability(scheme: QasScheme, key: int, state) -> float:
    """Probability that verification with this key accepts the state,
    ``||A† psi||^2`` or ``Tr(A† rho A)``: the one-pair case of
    :func:`acceptances`, with its bits."""
    return float(accept_branches(adjoint_isometry(scheme, key), register_array(state, scheme.total_dim))[1])


def acceptances(scheme: QasScheme, keys, registers) -> np.ndarray:
    """The acceptance of verification with ``keys[i]`` on the pure or
    density register ``registers[i]``.  Each distinct register (by
    identity) is checked once; the pure ones are stacked once and gathered
    per pair, and a density matrix is taken against its distinct keys
    only, so no register is copied per pair.  ``registers`` may also be
    an (n, d) array whose rows are pure registers' amplitudes, trusted
    as post-states are: the stack the gather builds, with the same bits."""
    keys = np.asarray(keys)
    if isinstance(registers, np.ndarray):
        return accept_branches(adjoint_isometry(scheme, keys), registers[..., None])[1]
    number = {}  # register id -> its number, in order of first appearance
    which = np.array([number.setdefault(id(s), len(number)) for s in registers], dtype=int)
    e = [register_array(s, scheme.total_dim) for s in {id(s): s for s in registers}.values()]
    pure = np.array([m.shape[-1] == 1 for m in e], dtype=bool)
    p = np.empty(len(keys))
    on_pure = pure[which]
    if on_pure.any():
        columns = np.stack([m for m, k in zip(e, pure) if k])[(np.cumsum(pure) - 1)[which[on_pure]]]
        p[on_pure] = accept_branches(adjoint_isometry(scheme, keys[on_pure]), columns)[1]
    for r in np.flatnonzero(~pure).tolist():
        on_r = which == r
        distinct, inverse = np.unique(keys[on_r], return_inverse=True)
        p[on_r] = accept_branches(adjoint_isometry(scheme, distinct), e[r])[1][inverse]
    return p


def verify(scheme: QasScheme, key: int, state, rng: np.random.Generator | None = None) -> VerifyOutcome:
    """The verification channel.

    Implements ``rho -> A† rho A (x) |Acc><Acc|
    + Tr[(I - A A†) rho] (I / 2^m) (x) |Rej><Rej|``.  With an ``rng`` the
    accept/reject branch is sampled at its analytic probability (by
    :func:`~qlease.qmath.draw_outcome`, the rule of every sampled bit)
    and the corresponding normalized branch returned; without one the
    outcome stays unsampled (``accepted=None``).  The decode is that of
    :func:`round_trips` through :func:`adjoint_isometry`; the maximally
    mixed state is built only when a sampled rejection returns it.
    """
    p, decoded = _decode(adjoint_isometry(scheme, key), register_array(state, scheme.total_dim))
    accepted = None if rng is None else bool(draw_outcome(float(p), rng))
    message = maximally_mixed(scheme.message_qubits) if accepted is False else DensityOperator._trusted(decoded)
    return VerifyOutcome(accepted, message, float(p))


# ---------------------------------------------------------------------------
# Wrong-key averages
# ---------------------------------------------------------------------------


def acceptance_by_index(scheme: QasScheme, state: PureState) -> np.ndarray:
    """Acceptance probability of a pure state for every index of an
    enumerated design, from a view of the design's whole column stack.  It
    serves values not linear in acceptance, such as the reusability damage
    ``sum_j w_j sqrt(a_j (1 - a_j))``; a linear value is one trace
    (:func:`summed_acceptance`, :func:`avg_design_accept`)."""
    psi = register_array(state, scheme.total_dim)
    if psi.shape[-1] != 1:
        raise TypeError("per-index acceptance takes a pure state")
    design = scheme.design
    if not isinstance(design, EnumeratedDesign):
        raise ValueError("exact per-index acceptance needs an enumerated design")
    return accept_branches(design.conj_columns(slice(None), 1 << scheme.trap_qubits).swapaxes(-1, -2), psi)[1]


def _index_sum(scheme: QasScheme, state, over_keys: bool) -> float:
    """``psi† S psi`` or ``Tr(S rho)`` for ``S = sum_j c_j A_j A_j†`` over
    design indices j: the key sum ``M = sum_x A_x A_x†`` (the min(2^k, |B|)
    indices the keys reach, at their preimage counts) or the design sum
    ``D`` (every index once).  ``S`` is built once, read-only, and kept in the
    design's ``index_sums`` under (m, t, k) or (m, t); the count is checked first."""
    register_array(state, scheme.total_dim)
    design = scheme.design
    n = min(1 << scheme.key_bits, design.cardinality) if over_keys else design.cardinality
    if n > MAX_EXACT_INDICES:
        raise ValueError(f"exact index sums build at most {MAX_EXACT_INDICES} elements, not {n}")
    sums = design.index_sums
    shape = (scheme.message_qubits, scheme.trap_qubits) + ((scheme.key_bits,) if over_keys else ())
    if shape not in sums:
        counts = scheme.key_map.preimage_counts().tolist() if over_keys else [1] * n
        s = np.zeros((scheme.total_dim, scheme.total_dim), dtype=complex)
        for j, count in enumerate(counts):
            c = design.conj_columns(j, 1 << scheme.trap_qubits)
            s += count * (c.conj() @ c.T)
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
