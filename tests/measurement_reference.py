"""Scalar reference arithmetic of the two-outcome measurement
``{I - V V†, V V†}`` that an isometry ``V`` defines, given as
``accept = V†``, on one register at a time.

The package computes every weight in one stacked kernel,
``qmath.accept_branches``, and every post-state in
``qmath.collapse_pure`` (a stack of pure registers) or
``qmath.measure_and_collapse``; the tests hold them to these unstacked
products (``np.vdot`` and ``.trace()``), bit for bit where they say so,
and a game's lock-step key searches to :func:`run_chain`.
"""

import numpy as np

from qlease.qas import adjoint_isometry
from qlease.qmath import DensityOperator, DimensionMismatchError, PureState, draw_outcome


def accept_branch(state, accept: np.ndarray) -> tuple[float, np.ndarray]:
    """``(p1, b)``: the branch ``b = V† psi`` or ``b = V† rho V`` and its
    weight ``p1 = ||b||^2`` or ``Tr b``, the probability of outcome 1."""
    if accept.ndim != 2 or accept.shape[1] != state.dim:
        raise DimensionMismatchError("measurement register does not match the state")
    if isinstance(state, PureState):
        b = accept @ state.amplitudes
        return float(np.vdot(b, b).real), b
    b = accept @ state.matrix @ accept.conj().T
    return float(b.trace().real), b


def collapse(state, accept: np.ndarray, outcome: int):
    """The post-state of a possible ``outcome``: the branch divided by its
    norm or trace, a pure state for a pure one and the Hermitian part of
    the normalised branch for a density operator."""
    p1, inner = accept_branch(state, accept)
    if isinstance(state, PureState):
        branch = (inner.conj() @ accept).conj()
        if outcome == 0:
            branch = state.amplitudes - branch
        return PureState._trusted(branch / np.sqrt(np.vdot(branch, branch).real))
    v = accept.conj().T
    if outcome == 1:
        m = v @ (inner / p1) @ accept
    else:
        q = np.eye(state.dim) - v @ accept
        m = q @ state.matrix @ q
        m = m / m.trace().real
    return DensityOperator._trusted((m + m.conj().T) / 2)


def run_chain(scheme, chain, rng):
    """A key search's chain run on its own, one candidate at a time, each
    outcome drawn by ``qmath.draw_outcome`` at this module's weight:
    ``(post, key)``, the searched program and the key the search stopped
    at (None if no candidate was accepted)."""
    state = chain.program
    for key in chain.keys:
        accept = adjoint_isometry(scheme, key)
        outcome = draw_outcome(accept_branch(state, accept)[0], rng)
        state = collapse(state, accept, outcome)
        if outcome == 1:
            return state, key
    return state, None
