"""Copy protection of point functions on top of the authentication scheme.

A point ``p`` doubles as the authentication key: the protected program is
``Auth_p |0^m> = A_p e_0``, the first column of the key's encoding isometry
as the design hands it out.  Evaluating at ``x`` runs verification with
``x`` as the claimed key and outputs 1 exactly on acceptance, so the encoded
point always evaluates to 1 and other inputs reject at the wrong-key rate.

Evaluation at ``x`` is the two-outcome measurement {I - A_x A_x†,
A_x A_x†} that the key's encoding isometry ``A_x`` defines: outcome 1,
acceptance, is the range of ``A_x``.  It is given as ``A_x†``
(:func:`~qlease.qas.adjoint_isometry`), the key's columns as the design
hands them out: a view of its one column stack when it is enumerated.
The construction's copy-out-the-answer circuit (purified verify, CNOT
the accept bit onto a fresh qubit, uncompute) leaves the ancillas in |0>
and acts on the program register exactly as this measurement, so the
measurement is what runs: the same bits and post-states without a
circuit on a register four times the program's size.
:func:`evaluate_preserving` hands the program back
(:func:`~qlease.qmath.measure_and_collapse`), exactly intact on the encoded point;
:func:`evaluate` consumes it and builds no post-state.

:func:`mix_protect` wraps a program with a pairwise independent
permutation: the point is first pushed through a uniformly random
``h_r``.  The family and ``r`` ride along as the program's classical
``mix``, and :func:`evaluate` and :func:`evaluate_preserving` measure a
mixed program at ``h_r(x)``, never at ``x`` itself.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .designs import EpsUniformMap, PairwisePermFamily, is_positive_int
from .qas import QasScheme, accept_probability, adjoint_isometry, auth_isometry, summed_acceptance
from .qmath import (
    DensityOperator,
    DimensionMismatchError,
    PureState,
    measure_and_collapse,
    measure_projective,
)


class ConsumedProgramError(RuntimeError):
    """The program was already destroyed by a destructive evaluation."""


def _is_bit_string(x, bits: int) -> bool:
    """Whether ``x`` is an integer (not a bool) in {0,1}^bits, for valid ``bits``."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and 0 <= x < (1 << bits)


@dataclass(frozen=True)
class PointFunction:
    """P_p on ell-bit strings: 1 exactly at the point, 0 elsewhere."""

    point: int
    bits: int

    def __post_init__(self):
        if not is_positive_int(self.bits):
            raise ValueError("bits must be a positive integer")
        if not _is_bit_string(self.point, self.bits):
            raise ValueError("point outside {0,1}^bits")

    def __call__(self, x: int) -> int:
        return 1 if x == self.point else 0


# ---------------------------------------------------------------------------
# Challenge distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChallengeDistribution:
    """A distribution on {0,1}^bits that holds no table: mass ``r`` on
    ``point`` and the rest uniform (r=1 is the point mass, r=1/2 the
    half-point distribution), or uniform when ``point`` and ``r`` are
    both None.

    It samples in constant time, gives the baselines its
    :meth:`exact_shape`, and builds :attr:`probs` afresh on each read.
    """

    bits: int
    point: int | None = None
    r: float | None = None

    def __post_init__(self):
        if not is_positive_int(self.bits):
            raise ValueError("bits must be a positive integer")
        if (self.point is None) != (self.r is None):
            raise ValueError("point and r are given together or not at all")
        if self.point is not None and not (_is_bit_string(self.point, self.bits) and 0.0 <= self.r <= 1.0):
            raise ValueError("need a point in {0,1}^bits and r in [0, 1]")

    @property
    def size(self) -> int:
        return 1 << self.bits

    @property
    def probs(self) -> np.ndarray:
        probs = np.full(self.size, self._flat())
        if self.point is not None:
            probs[self.point] = self.r
        return probs

    def _flat(self) -> float:
        return 1.0 / self.size if self.r is None else _flat_weight(self.bits, self.r)

    def prob(self, x: int) -> float:
        return self.r if x == self.point else self._flat()

    def exact_shape(self) -> tuple[Fraction, int | None, Fraction]:
        """(flat, peak, peak weight) in exact rationals: every string but
        the peak has the flat weight, and the uniform distribution has no
        peak."""
        if self.point is None:
            return Fraction(1, self.size), None, Fraction(1, self.size)
        flat, top = _biased_weights(self.bits, self.r)
        return flat, self.point, top

    def class_weights(self, key_map: EpsUniformMap) -> np.ndarray:
        """``Pr[key_map(x) = j]`` for every index ``j`` the map reaches: the
        flat weight per preimage plus the peak's excess."""
        if key_map.domain_bits != self.bits:
            raise DimensionMismatchError("distribution bit-length mismatch")
        weights = key_map.preimage_counts() * self._flat()
        if self.point is not None:
            weights[key_map.apply(self.point)] += self.r - self._flat()
        return weights

    def sample(self, rng: np.random.Generator) -> int:
        if self.point is None:
            return int(rng.integers(self.size))
        return _draw_near(self.bits, self.point, self.r, rng)


def _flat_weight(bits: int, r: float) -> float:
    """The float weight of each string but the peak under mass ``r`` on one of 2^bits."""
    return (1.0 - r) / ((1 << bits) - 1)


def _draw_near(bits: int, point: int, r: float, rng: np.random.Generator) -> int:
    """Mass ``r`` on ``point``: a uniform against ``r``, else one of the other 2^bits - 1 strings."""
    if rng.random() < r:
        return point
    other = int(rng.integers((1 << bits) - 1))
    return other + (other >= point)


@functools.lru_cache(maxsize=256)
def _biased_weights(bits: int, r: float) -> tuple[Fraction, Fraction]:
    """Exact (flat, peak) weights of mass ``r`` on one of 2^bits strings:
    the peak is the simplest rational with denominator at most 10^12 that
    rounds back to ``r``, else the binary value of ``r`` itself."""
    top = Fraction(r).limit_denominator(10**12)
    if float(top) != r:
        top = Fraction(r)
    return (1 - top) / ((1 << bits) - 1), top


@dataclass(frozen=True)
class PointFamily:
    """The point-centred challenge family: at point ``p``, mass ``r`` on
    ``p`` and uniform elsewhere.  Validated once, when it is built;
    :meth:`sample` draws at a point, ``family(p)`` is the member
    ``ChallengeDistribution(bits, p, r)``, :meth:`weights` their exact weights."""

    bits: int
    r: float

    def __post_init__(self):
        if not is_positive_int(self.bits):
            raise ValueError("bits must be a positive integer")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")

    def __call__(self, point: int) -> ChallengeDistribution:
        return ChallengeDistribution(self.bits, point, self.r)

    def sample(self, point: int, rng: np.random.Generator) -> int:
        """The challenge at ``point``: the draw of ``family(point).sample(rng)``."""
        return _draw_near(self.bits, point, self.r, rng)

    def weights(self) -> tuple[Fraction, Fraction]:
        """(flat, peak): the exact weights of every string but the point,
        and of the point."""
        return _biased_weights(self.bits, self.r)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass
class ProtectedProgram:
    """A program state on Y plus bookkeeping.

    Programs are single-owner: destructive evaluation flips ``consumed``
    and any further use raises.  A mixed program carries ``mix = (family,
    r)``, the classical parameter of the permutation ``h_r`` that
    evaluation applies to its input.
    """

    state: PureState | DensityOperator
    scheme: QasScheme
    mix: tuple[PairwisePermFamily, tuple[int, int]] | None = None
    consumed: bool = False

    def _key(self, x: int) -> int:
        """The key that evaluation at ``x`` verifies with: ``h_r(x)`` for a
        mixed program, ``x`` itself otherwise."""
        if self.mix is None:
            return x
        family, r = self.mix
        return family.apply(r, x)


def protect(scheme: QasScheme, point: int) -> ProtectedProgram:
    """Encode a point: ``Auth_p |0^m> = A_p e_0``, the key's first encoding column, its zeros made +0.0."""
    return ProtectedProgram(PureState._trusted(auth_isometry(scheme, point)[:, 0] + 0.0), scheme)


def accept_projector(scheme: QasScheme, x: int) -> np.ndarray:
    """Projector onto valid encodings under key ``x`` (``A_x A_x†``): the
    dense reference, which evaluation does not build."""
    a = auth_isometry(scheme, x)
    return a @ a.conj().T


def evaluate(program: ProtectedProgram, x: int, rng: np.random.Generator) -> int:
    """Destructive evaluation: verify with key ``x`` (``h_r(x)`` for a
    mixed program), output 1 on accept.

    The program is consumed and no post-state is built; the encoded
    point always evaluates to 1.
    """
    if program.consumed:
        raise ConsumedProgramError("program was already consumed")
    outcome = measure_projective(program.state, adjoint_isometry(program.scheme, program._key(x)), rng)
    program.consumed = True
    return outcome


def evaluate_preserving(
    program: ProtectedProgram, x: int, rng: np.random.Generator
) -> tuple[int, ProtectedProgram]:
    """Program-preserving evaluation: the bit of :func:`evaluate` (the same
    draw), with a fresh program holding the post-measurement state, both
    from one :func:`~qlease.qmath.measure_and_collapse`.  On the encoded
    point the state comes back exactly unchanged."""
    if program.consumed:
        raise ConsumedProgramError("program was already consumed")
    accept = adjoint_isometry(program.scheme, program._key(x))
    outcome, post = measure_and_collapse(program.state, accept, rng)
    program.consumed = True
    return outcome, replace(program, state=post, consumed=False)


def post_evaluation_state(
    scheme: QasScheme, state: PureState | DensityOperator, x: int
) -> DensityOperator:
    """The unselected output of the preserving evaluation on Y: the input
    dephased across the accept/reject split of key ``x``.  This is what
    one round of evaluation does to the program when nobody looks at the
    answer bit."""
    rho = state.density().matrix if isinstance(state, PureState) else state.matrix
    accept = adjoint_isometry(scheme, x)
    p = accept.conj().T @ accept
    q = np.eye(len(p)) - p
    return DensityOperator(p @ rho @ p + q @ rho @ q)


# ---------------------------------------------------------------------------
# Exact correctness
# ---------------------------------------------------------------------------


def correctness_from_answers(family: PointFamily, at_point: float, summed: float) -> float:
    """E_{x<-family(p)} Pr[the answer at x is P_p(x)] for answers that read 1
    at x with probability ``a_x``: ``at_point`` is ``a_p``, ``summed`` their sum
    over x, and every x but p has the flat weight: ``r a_p + flat ((2^k - 1) - (summed - a_p))``."""
    size = 1 << family.bits
    return family.r * at_point + _flat_weight(family.bits, family.r) * ((size - 1) - (summed - at_point))


def honest_correctness(scheme: QasScheme, state, point: int, family: PointFamily) -> float:
    """E_{x<-family(p)} Pr[honest evaluation of ``state`` at x outputs P_p(x)],
    from its acceptance at p and its acceptance summed over every key."""
    if not isinstance(family, PointFamily):
        raise TypeError("honest correctness needs a PointFamily of challenges")
    if family.bits != scheme.key_bits:
        raise DimensionMismatchError("family bit-length mismatch")
    at_point = accept_probability(scheme, point, state)
    return correctness_from_answers(family, at_point, summed_acceptance(scheme, state))


def correctness_exact(scheme: QasScheme, point: int, family: PointFamily) -> float:
    """E_{x<-family(p)} Pr[evaluate outputs P_p(x)], computed analytically."""
    return honest_correctness(scheme, protect(scheme, point).state, point, family)


def wrong_key_average_excluding(scheme: QasScheme, point: int) -> float:
    """Mean acceptance of the program over uniformly random x != p."""
    state = protect(scheme, point).state
    hits = summed_acceptance(scheme, state) - accept_probability(scheme, point, state)
    return hits / ((1 << scheme.key_bits) - 1)


# ---------------------------------------------------------------------------
# MIX wrapper
# ---------------------------------------------------------------------------


def mix_protect(
    scheme: QasScheme,
    family: PairwisePermFamily,
    point: int,
    rng: np.random.Generator,
    r: tuple[int, int] | None = None,
) -> ProtectedProgram:
    """Protect ``h_r(p)`` for a uniformly random permutation parameter
    (or a forced one), recording ``r`` as classical metadata."""
    if family.bits != scheme.key_bits:
        raise DimensionMismatchError("family bit-length must match the scheme")
    if r is None:
        r = family.sample_param(rng)
    return replace(protect(scheme, family.apply(r, point)), mix=(family, r))


def mix_error_exact(
    scheme: QasScheme, family: PairwisePermFamily, point: int, x: int
) -> float:
    """Exact per-input error of the mixed scheme at (p, x): the chance,
    over the permutation parameter and the evaluation, that evaluating a
    mixed program disagrees with P_p(x).  Needs an enumerable family."""
    total = 0.0
    for r in family.params():
        program = mix_protect(scheme, family, point, None, r)
        prob_one = accept_probability(scheme, program._key(x), program.state)
        total += (1.0 - prob_one) if x == point else prob_one
    return total / family.size
