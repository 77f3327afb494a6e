"""Software leasing built on the copy-protection scheme.

A lease is the protected program itself, a
:class:`~qlease.copyprotect.ProtectedProgram`; the secret key is empty.
The Lessor is :func:`ssl_lease` (or :func:`cc_lease`), Run is
:func:`~qlease.copyprotect.evaluate_preserving`, which hands the program
back so an honest lessee can keep using it, and Check is
:func:`ssl_verify` (or :func:`cc_verify`).  Verification of a returned
state samples a challenge from a per-circuit verification distribution
(default: the point itself) and destructively evaluates; an intact
program at the point passes with probability one.

Compute-and-compare programs (output 1 iff f(x) = y) reduce to point
functions: lease the point ``y`` and evaluate at ``f(x)``.  The truth
table of ``f`` travels with the program in the clear, as its ``table``;
the target ``y`` does not.  :func:`pushforward` gives the distribution
of the point program's challenges as a probability vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .copyprotect import (
    ChallengeDistribution,
    PointFamily,
    PointFunction,
    ProtectedProgram,
    evaluate,
    protect,
)
from .designs import is_bit_string, is_positive_int
from .qas import QasScheme
from .qmath import DensityOperator, DimensionMismatchError, PureState


@dataclass(frozen=True)
class SslScheme:
    """Leasing scheme: the base authentication scheme plus the shape of
    the verification challenge T'_C = (point with mass ``verify_r``,
    uniform elsewhere).  ``verify_r = 1`` verifies at the point itself;
    a mass outside [0, 1] (or NaN) raises ``ValueError``."""

    base: QasScheme
    verify_r: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.verify_r <= 1.0:
            raise ValueError(f"verify_r must lie in [0, 1], got {self.verify_r}")


@dataclass(frozen=True)
class CompareFunction:
    """CC_{f,y}: outputs 1 on x iff f(x) = y, with f an explicit table.

    ``out_bits`` is a positive integer, and every table entry and the
    target are integers (not bools) in {0,1}^out_bits."""

    table: tuple[int, ...]
    out_bits: int
    target: int

    def __post_init__(self):
        n = len(self.table)
        if n < 1 or n & (n - 1):
            raise ValueError("table length must be a power of two")
        if not is_positive_int(self.out_bits):
            raise ValueError("out_bits must be a positive integer")
        if not all(is_bit_string(v, self.out_bits) for v in self.table):
            raise ValueError("table values must be integers in {0,1}^out_bits")
        if not is_bit_string(self.target, self.out_bits):
            raise ValueError("target must be an integer in {0,1}^out_bits")
        object.__setattr__(self, "table", tuple(self.table))

    @property
    def in_bits(self) -> int:
        return len(self.table).bit_length() - 1

    def f(self, x: int) -> int:
        return self.table[x]

    def __call__(self, x: int) -> int:
        return 1 if self.table[x] == self.target else 0

    @classmethod
    def identity(cls, bits: int, target: int) -> "CompareFunction":
        return cls(tuple(range(1 << bits)), bits, target)


def verify_distribution(scheme: SslScheme, pf: PointFunction) -> ChallengeDistribution:
    """The challenge distribution used by verification for this circuit."""
    return PointFamily(pf.bits, scheme.verify_r)(pf.point)


def ssl_lease(scheme: SslScheme, pf: PointFunction) -> ProtectedProgram:
    """Lease a point function: the protected program, verbatim."""
    if pf.bits != scheme.base.key_bits:
        raise DimensionMismatchError("point length must match the scheme")
    return protect(scheme.base, pf.point)


def ssl_verify(
    scheme: SslScheme,
    pf: PointFunction,
    returned: PureState | DensityOperator,
    rng: np.random.Generator,
    transcript: list | None = None,
) -> int:
    """Check a returned state: sample x from the verification distribution
    and destructively evaluate; accept iff the output matches P_p(x)."""
    if pf.bits != scheme.base.key_bits:
        raise DimensionMismatchError("point length must match the scheme")
    x = verify_distribution(scheme, pf).sample(rng)
    outcome = evaluate(ProtectedProgram(state=returned, scheme=scheme.base), x, rng)
    accept = int(outcome == pf(x))
    if transcript is not None:
        transcript.append({"x": x, "outcome": outcome, "accept": accept})
    return accept


# ---------------------------------------------------------------------------
# Compute-and-compare lift
# ---------------------------------------------------------------------------


def cc_lease(scheme: SslScheme, cf: CompareFunction) -> ProtectedProgram:
    """Lease CC_{f,y}: the protected program of the target y, carrying
    f's truth table in the clear, so that evaluation at x reads f(x)."""
    if cf.out_bits != scheme.base.key_bits:
        raise DimensionMismatchError("target length must match the scheme")
    return replace(protect(scheme.base, cf.target), table=cf.table)


def cc_verify(
    scheme: SslScheme,
    cf: CompareFunction,
    returned: PureState | DensityOperator,
    rng: np.random.Generator,
    transcript: list | None = None,
) -> int:
    """Verification of a CC program is point verification at the target."""
    return ssl_verify(
        scheme, PointFunction(cf.target, cf.out_bits), returned, rng, transcript
    )


def pushforward(cf: CompareFunction, dist: ChallengeDistribution) -> np.ndarray:
    """Push an input distribution through f: the probabilities of f(x),
    as a read-only vector over {0,1}^out_bits.

    Challenges for the underlying point program are distributed exactly
    like this when CC challenges are drawn from ``dist``.
    """
    if dist.bits != cf.in_bits:
        raise DimensionMismatchError("distribution must live on f's domain")
    probs = np.bincount(cf.table, dist.probs, 1 << cf.out_bits)
    probs.setflags(write=False)
    return probs


def epsilon_f(p_triv_cc: float, p_triv_pf: float, epsilon: float) -> float:
    """Security budget available to the point-function scheme when the
    compute-and-compare wrapper must be ``epsilon``-secure: the gap
    between the two trivial-guess baselines is added on top."""
    return (p_triv_cc - p_triv_pf) + epsilon
