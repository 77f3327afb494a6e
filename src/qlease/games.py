"""Security-game harnesses, trivial-guess baselines and an adversary zoo.

One game is played, the paper's honest-malicious pirating game: a pirate
splits one protected program into a register for Bob, who evaluates
honestly, and a register for Charlie, who measures however he likes;
they win by both answering their independent challenges correctly.  The
leasing game is the same game on :func:`leasing_spec`: the lessor's
verification is honest Bob on the returned register, and the lessee
answers the challenge from the kept register as Charlie.  Both forms run
through one trial loop, whose draws come in a fixed order: the point, the
pirate's split, Bob's challenge, Charlie's challenge, Bob's measurement,
then Charlie's answer; a trial is won iff both answers are right.  The
loop runs a block's draws first, an honest measurement drawing only its
uniform, then decides the block's measurements at once (:func:`_play`);
a trial's measurements are its last draws, one uniform each, so the bits
are those of measuring in turn, and memory is O(block).

Each party holds its own register: a pirate's ``split`` returns Bob's
state and Charlie's state, and each party measures its whole register
and nothing else, so Bob's measurement leaves Charlie's register
untouched; a trial keeps only the two bits, so only keysearch's chain
builds a post-state.  This covers every pirate shipped here, whose two
registers are separate tensor factors; a pirate that entangles them would
need a joint register.  The shipped pirates hand one party the program and
the other a fixed ancilla (:class:`PirateMap`), or search for the key
(:class:`KeysearchPirate`).

Every Monte Carlo estimate here is reproducible: trial ``i`` of a run
with master seed ``s`` uses a generator equal to ``spawn_rng(s, i)``
(derived in blocks by ``spawn_rngs``), so serial and parallel
schedules produce identical reports.  For a pirate that hands out fixed
registers, :func:`exact_win` gives the exact winning
probability from each register's acceptance at the point and summed
over every key, on enumerated and indexed designs alike: an independent
route against which the trial loop is checked.

Baselines ``p_marg`` and ``p_ind`` are the best challenge-only guessing
probabilities, for a uniform or single-peak circuit distribution and a
:class:`~qlease.copyprotect.PointFamily` of challenges ("mass r on the
point, uniform elsewhere"): one closed form in exact rationals, O(1) in
the key length.  Any other input raises ``ValueError``.
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .copyprotect import (
    ChallengeDistribution,
    PointFamily,
    correctness_from_answers,
    honest_correctness,
    protect,
)
from .leasing import SslScheme
from .qas import QasScheme, acceptances, adjoint_isometry
from .qmath import (
    SPAWN_BLOCK,
    DensityOperator,
    DimensionMismatchError,
    PureState,
    maximally_mixed,
    measure_and_collapse,
    measure_projective,
    outcome_at,
    spawn_rngs,
    zero_state,
)

CSV_SCHEMA_VERSION = 1


def wilson_interval(wins: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= wins <= trials:
        raise ValueError("need 0 <= wins <= trials and trials >= 1")
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    phat = wins / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * float(np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials**2))) / denom
    lo = 0.0 if wins == 0 else max(0.0, float(center - half))
    hi = 1.0 if wins == trials else min(1.0, float(center + half))
    return lo, hi


# ---------------------------------------------------------------------------
# Adversary building blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PirateMap:
    """A splitter that hands one party the program and the other a fixed
    ancilla.

    Bob gets the program and Charlie the ancilla; with ``keep`` the
    program is kept for Charlie and Bob gets the ancilla (in the leasing
    game Bob's register is the returned one, Charlie's the kept one).
    Any object with a ``split`` method of the same signature can play the
    pirate.
    """

    ancilla: PureState | DensityOperator
    keep: bool = False
    name: str = "pirate"

    def split(self, program_state: PureState, point: int, rng: np.random.Generator):
        """Apply the map; returns (Bob's state, Charlie's state, side info).

        ``point`` is the encoded point.  A real pirate never reads it; it
        is threaded through for modeling adversaries (see
        :class:`KeysearchPirate`) which say so explicitly.
        """
        if self.keep:
            return self.ancilla, program_state, None
        return program_state, self.ancilla, None


class MeasurementStrategy:
    """Charlie's side: one answer bit per challenge, from his whole
    register, which is not kept."""

    name = "strategy"

    def answer(self, state, x, side, rng) -> int:
        raise NotImplementedError


class FixedAnswer(MeasurementStrategy):
    """Always answers the same bit, without measuring."""

    def __init__(self, bit: int):
        self.bit = int(bit)
        self.name = f"fixed-{self.bit}"

    def answer(self, state, x, side, rng) -> int:
        return self.bit


class HonestEvalStrategy(MeasurementStrategy):
    """Runs the honest evaluation measurement on a program-shaped register:
    outcome 1 is answer 1."""

    def __init__(self, scheme: QasScheme):
        self.scheme = scheme
        self.name = "honest-eval"

    def answer(self, state, x, side, rng) -> int:
        return measure_projective(state, adjoint_isometry(self.scheme, x), rng)


class PointGuessStrategy(MeasurementStrategy):
    """Classical guess from a key the pirate recovered: answer 1 iff the
    challenge equals it (0 when the search came up empty)."""

    name = "point-guess"

    def answer(self, state, x, side, rng) -> int:
        return int(side is not None and x == side)


class KeysearchPirate:
    """Brute-force key search: try candidate keys one by one, coherently,
    stopping at the first acceptance.

    Each trial draws a fresh candidate list: the true point planted at a
    uniformly random position among ``budget_size`` slots, the others
    distinct wrong keys — modeling the brute-forcer who would eventually
    reach the right key — so a budget of 1 is the lucky guess and a full
    budget is the whole key space in random order.

    Every candidate test is the projective accept-check for that key;
    wrong-key tests damage the program and may stop the search at a false
    acceptance, which is the error-accumulation mechanism this adversary
    exists to demonstrate.
    """

    def __init__(self, scheme: QasScheme, budget_size: int):
        if not 1 <= budget_size <= 1 << scheme.key_bits:
            raise ValueError("budget_size outside the key space")
        self.scheme = scheme
        self.budget_size = budget_size
        self.name = f"keysearch-{budget_size}"

    def _candidates(self, point: int, rng: np.random.Generator) -> list[int]:
        # every key but the point, in order, then shuffled
        others = np.arange((1 << self.scheme.key_bits) - 1)
        others[point:] += 1
        rng.shuffle(others)
        keys = others[: self.budget_size - 1].tolist()
        keys.insert(int(rng.integers(self.budget_size)), point)
        return keys

    def split(self, program_state: PureState, point: int, rng: np.random.Generator):
        """Returns the searched program for Bob, no register for Charlie,
        and the key found (None if the search came up empty)."""
        state = program_state
        for key in self._candidates(point, rng):
            outcome, state = measure_and_collapse(state, adjoint_isometry(self.scheme, key), rng)
            if outcome == 1:
                return state, None, key
        return state, None, None


# ---------------------------------------------------------------------------
# Game specification and baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GameSpec:
    """Distributions of the game: the circuit (point) distribution, and
    Bob's and Charlie's challenge families (in the leasing game,
    verification's and the lessee's; see :func:`leasing_spec`).  Each is
    on the scheme's key length, and each family is a
    :class:`~qlease.copyprotect.PointFamily`: the challenge is drawn at
    the point, so it cannot be centred anywhere else."""

    scheme: QasScheme
    circuit_dist: ChallengeDistribution
    bob_family: PointFamily
    charlie_family: PointFamily

    def __post_init__(self):
        if not all(isinstance(f, PointFamily) for f in (self.bob_family, self.charlie_family)):
            raise ValueError("a game's challenge families must be PointFamily instances")
        bits = [p.bits for p in (self.circuit_dist, self.bob_family, self.charlie_family)]
        if any(b != self.scheme.key_bits for b in bits):
            raise DimensionMismatchError(
                f"distributions on {bits} bits in a game on {self.scheme.key_bits}-bit keys"
            )


def default_cp_spec(scheme: QasScheme, bob_r: float = 0.5) -> GameSpec:
    """Uniform points; Charlie challenged from the half-point
    distribution; Bob's marginal generalized to mass ``bob_r`` at the
    point (0.5 recovers the product of two half-point draws)."""
    bits = scheme.key_bits
    return GameSpec(
        scheme=scheme,
        circuit_dist=ChallengeDistribution(bits),
        bob_family=PointFamily(bits, bob_r),
        charlie_family=PointFamily(bits, 0.5),
    )


def leasing_spec(
    ssl_scheme: SslScheme, circuit_dist: ChallengeDistribution, challenge_family: PointFamily
) -> GameSpec:
    """The leasing game as a pirating game: the lessor's verification is
    honest Bob, challenged from the verification distribution; the
    returned register is Bob's, the kept one Charlie's, and the lessee's
    challenge is Charlie's."""
    return GameSpec(
        scheme=ssl_scheme.base,
        circuit_dist=circuit_dist,
        bob_family=PointFamily(ssl_scheme.base.key_bits, ssl_scheme.verify_r),
        charlie_family=challenge_family,
    )


def _best_guess_rate(circuit_dist: ChallengeDistribution, family: PointFamily) -> Fraction:
    """E over the challenge marginal of the best fixed guess of C(x), in
    exact rationals and O(1).

    The circuit has weight c at every point but one, of weight s (a
    uniform circuit is any point with s = c), and the family puts mass r
    on the point and f on each other string.  At challenge x the best
    guess takes the larger of the weights of (point = x, x) and
    (point != x, x): s*r against (n-1)*c*f at the circuit's peak, and
    c*r against s*f + (n-2)*c*f at each of the n-1 other strings.

    Raises ``ValueError`` for a family that is not a
    :class:`~qlease.copyprotect.PointFamily` on the circuit's strings.
    """
    if not isinstance(family, PointFamily) or family.bits != circuit_dist.bits:
        raise ValueError("baselines need a PointFamily on the circuit's strings")
    c, _, s = circuit_dist.exact_shape()
    f, r = family.weights()
    n = circuit_dist.size
    return max(s * r, (n - 1) * c * f) + (n - 1) * max(c * r, s * f + (n - 2) * c * f)


def p_marg(circuit_dist: ChallengeDistribution, charlie_family: PointFamily) -> Fraction:
    """Charlie's best challenge-only guessing probability in the pirating
    game, from his challenge marginal."""
    return _best_guess_rate(circuit_dist, charlie_family)


def p_ind(circuit_dist: ChallengeDistribution, challenge_family: PointFamily) -> Fraction:
    """The lessee's best challenge-only guessing probability in the
    leasing game."""
    return _best_guess_rate(circuit_dist, challenge_family)


def cp_security_bound(baseline: float, epsilon: float) -> float:
    """Theorem bound for the pirating game: baseline + 3eps/2 + sqrt(2eps)."""
    return baseline + 1.5 * epsilon + float(np.sqrt(2 * epsilon))


def ssl_security_bound(baseline: float, epsilon: float) -> float:
    """Theorem bound for the leasing game: baseline + eps (inherited)."""
    return baseline + epsilon


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameReport:
    game: str
    scheme: str
    adversary: str
    trials: int
    wins: int
    estimate: float
    ci_lo: float
    ci_hi: float
    baseline: float
    bound: float
    seed: int
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"schema_version": CSV_SCHEMA_VERSION, **asdict(self)}

    def csv_row(self) -> list:
        return [CSV_SCHEMA_VERSION, *(getattr(self, name) for name in CSV_HEADER[1:])]


#: CSV columns: the schema version, then every report field but ``params``.
CSV_HEADER = ["schema_version", *(f.name for f in fields(GameReport) if f.name != "params")]


def append_csv(report: GameReport, path: str | Path) -> None:
    """Append one result row, writing the header on first use."""
    path = Path(path)
    fresh = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_HEADER)
        writer.writerow(report.csv_row())


# ---------------------------------------------------------------------------
# Harnesses
# ---------------------------------------------------------------------------


def _play(spec: GameSpec, pirate, charlie: MeasurementStrategy, trials: int, seed: int) -> int:
    """Wins in ``trials`` Monte Carlo trials of the honest-malicious game.

    Trial ``i`` uses a generator equal to ``spawn_rng(seed, i)`` (from
    :func:`~qlease.qmath.spawn_rngs`) and draws, in order: the
    point, the pirate's split, Bob's challenge, Charlie's challenge,
    Bob's honest measurement on his register, and Charlie's answer from
    his own register, which Bob's measurement leaves untouched.  The
    trial is won iff both answers are right.  Charlie answers in every
    trial, also when Bob is already wrong; since each trial has its own
    generator, skipping Charlie then would change no report.

    Trials run in blocks of :data:`~qlease.qmath.SPAWN_BLOCK`, in two
    phases.  First each trial draws on its own generator, in the order
    above; an honest measurement (Bob's, and Charlie's when he is exactly
    :class:`HonestEvalStrategy`) draws only its uniform and is recorded
    with its register and challenge, and any other Charlie answers at
    once.  Then one :func:`~qlease.qas.acceptances` call and one
    :func:`~qlease.qmath.outcome_at` call decide the block's measurements.
    The bits are those of measuring in turn, since a trial's measurements
    are its last draws and each consumes one uniform.
    Memory is O(block): a block keeps its registers until its outcomes are
    decided, and the run caches only each point's program.  An honest
    Charlie (of any subclass) on another scheme is refused before any trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    scheme = spec.scheme
    if isinstance(charlie, HonestEvalStrategy) and charlie.scheme != scheme:
        raise ValueError("an honest Charlie must evaluate on the game's scheme")
    honest = type(charlie) is HonestEvalStrategy

    program = functools.cache(lambda p: protect(scheme, p).state)

    wins = 0
    rngs = spawn_rngs(seed, trials)
    for _ in range(0, trials, SPAWN_BLOCK):
        asked = []  # per honest measurement: its register, challenge and uniform, the right bit
        charlie_right = []
        for rng in itertools.islice(rngs, SPAWN_BLOCK):
            p = spec.circuit_dist.sample(rng)
            bob, charlie_state, side = pirate.split(program(p), p, rng)
            x1, x2 = spec.bob_family.sample(p, rng), spec.charlie_family.sample(p, rng)
            for state, x in ((bob, x1), (charlie_state, x2))[: 1 + honest]:
                asked.append((state, x, rng.random(), x == p))
            if not honest:
                charlie_right.append(charlie.answer(charlie_state, x2, side, rng) == (x2 == p))
        registers, keys, u, right = zip(*asked)
        correct = outcome_at(acceptances(scheme, keys, registers), np.array(u)) == np.array(right)
        # a trial's measurements are Bob's, then Charlie's when he is honest
        won = correct.reshape(-1, 2).all(axis=1) if honest else correct & np.array(charlie_right)
        wins += int(np.count_nonzero(won))
    return wins


def _report(
    game: str,
    spec: GameSpec,
    pirate,
    charlie: MeasurementStrategy,
    trials: int,
    seed: int,
    wins: int,
    baseline: float,
    bound: float,
    **params,
) -> GameReport:
    """The report of one run; ``params`` extend the scheme's m, t, k."""
    scheme = spec.scheme
    lo, hi = wilson_interval(wins, trials)
    return GameReport(
        game=game,
        scheme=scheme.scheme_id,
        adversary=getattr(pirate, "name", "pirate") + "/" + charlie.name,
        trials=trials,
        wins=wins,
        estimate=wins / trials,
        ci_lo=lo,
        ci_hi=hi,
        baseline=baseline,
        bound=bound,
        seed=seed,
        params={"m": scheme.message_qubits, "t": scheme.trap_qubits, "k": scheme.key_bits, **params},
    )


def run_experiment_free(
    spec: GameSpec,
    pirate,
    charlie: MeasurementStrategy,
    trials: int,
    seed: int,
) -> GameReport:
    """Monte Carlo run of the pirating game (see :func:`_play`), against
    the baseline :func:`p_marg` and the bound :func:`cp_security_bound`."""
    baseline = float(p_marg(spec.circuit_dist, spec.charlie_family))
    wins = _play(spec, pirate, charlie, trials, seed)
    bound = cp_security_bound(baseline, spec.scheme.epsilon)
    return _report("free", spec, pirate, charlie, trials, seed, wins, baseline, bound)


def run_experiment_ssl(
    ssl_scheme: SslScheme,
    circuit_dist: ChallengeDistribution,
    challenge_family: PointFamily,
    adversary,
    strategy: MeasurementStrategy,
    trials: int,
    seed: int,
) -> GameReport:
    """Monte Carlo run of the leasing game: the pirating game's trials
    (:func:`_play`) on :func:`leasing_spec`, against the baseline
    :func:`p_ind` and the bound :func:`ssl_security_bound`.

    The adversary's returned register is verified (a rejection loses the
    trial), and the adversary answers the challenge from the kept
    register.  The challenge is drawn before verification measures; it
    is independent of everything drawn before it, so its distribution is
    the same as if it were drawn after.
    """
    baseline = float(p_ind(circuit_dist, challenge_family))
    spec = leasing_spec(ssl_scheme, circuit_dist, challenge_family)
    wins = _play(spec, adversary, strategy, trials, seed)
    bound = ssl_security_bound(baseline, spec.scheme.epsilon)
    return _report(
        "ssl", spec, adversary, strategy, trials, seed, wins, baseline, bound,
        verify_r=ssl_scheme.verify_r,
    )


# ---------------------------------------------------------------------------
# The zoo
# ---------------------------------------------------------------------------


def trivial_forward(scheme: QasScheme) -> tuple[PirateMap, MeasurementStrategy]:
    """Program straight to Bob; Charlie gets a fresh qubit and always
    answers 0."""
    return PirateMap(zero_state(1), name="trivial-forward"), FixedAnswer(0)


def give_to_charlie(scheme: QasScheme) -> tuple[PirateMap, MeasurementStrategy]:
    """Charlie gets the intact program and evaluates honestly; Bob gets a
    maximally mixed dummy."""
    pirate = PirateMap(maximally_mixed(scheme.total_qubits), keep=True, name="give-to-charlie")
    return pirate, HonestEvalStrategy(scheme)


def keysearch_adversary(
    scheme: QasScheme, budget_size: int
) -> tuple[KeysearchPirate, MeasurementStrategy]:
    return KeysearchPirate(scheme, budget_size), PointGuessStrategy()


# In the leasing game the lessor's verification plays honest Bob: the
# returned register is Bob's, the kept one Charlie's.  The leasing
# adversaries are the pirating ones under their leasing names.


def honest_return(ssl_scheme: SslScheme) -> tuple[PirateMap, MeasurementStrategy]:
    """:func:`trivial_forward`: return the program untouched, keep a fresh
    qubit, always answer 0."""
    pirate, strategy = trivial_forward(ssl_scheme.base)
    return replace(pirate, name="honest-return"), strategy


def keep_program(ssl_scheme: SslScheme) -> tuple[PirateMap, MeasurementStrategy]:
    """:func:`give_to_charlie`: return a maximally mixed dummy, keep the
    program, answer by honest evaluation on the kept copy."""
    pirate, strategy = give_to_charlie(ssl_scheme.base)
    return replace(pirate, name="keep-program"), strategy


# ---------------------------------------------------------------------------
# Exact winning probabilities
# ---------------------------------------------------------------------------


class _NoDraws:
    """The generator :func:`exact_win` hands a pirate's split: any draw
    raises, since the formula needs registers fixed by the point."""

    def __getattr__(self, name):
        raise ValueError("exact_win needs a pirate whose split draws no randomness")


def exact_win(spec: GameSpec, pirate, charlie: MeasurementStrategy) -> float:
    """Exact winning probability of a pirate that hands out fixed registers.

    Each party measures only its own register, so the win rate is
    ``sum_p w_p Pr[Bob correct | beta_p] Pr[Charlie correct | sigma_p]``
    for the registers ``(beta_p, sigma_p)`` the pirate hands out at point
    ``p``.  Bob evaluates honestly; Charlie answers a fixed bit
    (:class:`FixedAnswer`) or evaluates honestly
    (:class:`HonestEvalStrategy`).  A split's registers may depend on the
    point only through its program, which depends on it only through its
    design index j; with point-centred families so does each factor.  So
    the sum runs over the indices j the circuit reaches, at their class
    weight, with j itself as the class's point.  An honest factor reads
    the register's acceptance at j and summed over every key
    (:func:`~qlease.copyprotect.honest_correctness`), on any design.

    Raises ``ValueError`` for a split that draws randomness (such as
    :class:`KeysearchPirate`), another Charlie, an honest Charlie on
    another scheme, or too many reached indices.
    """
    scheme = spec.scheme
    if not isinstance(charlie, (FixedAnswer, HonestEvalStrategy)):
        raise ValueError("exact_win needs Charlie to answer a fixed bit or evaluate honestly")
    if isinstance(charlie, HonestEvalStrategy) and charlie.scheme != scheme:
        raise ValueError("an honest Charlie must evaluate on the game's scheme")
    weights = spec.circuit_dist.class_weights(scheme.key_map)
    total = 0.0
    for j in np.flatnonzero(weights).tolist():
        bob, held, _ = pirate.split(protect(scheme, j).state, j, _NoDraws())
        if isinstance(charlie, FixedAnswer):
            bit = float(charlie.bit)
            charlie_right = correctness_from_answers(spec.charlie_family, bit, bit * (1 << scheme.key_bits))
        else:
            charlie_right = honest_correctness(scheme, held, j, spec.charlie_family)
        total += weights[j] * honest_correctness(scheme, bob, j, spec.bob_family) * charlie_right
    return float(total)


# The benchmark's zoo checks (perfbench/workloads.py) call these by name.


def oracle_trivial_forward(spec: GameSpec) -> float:
    return exact_win(spec, *trivial_forward(spec.scheme))


def oracle_give_to_charlie(spec: GameSpec) -> float:
    return exact_win(spec, *give_to_charlie(spec.scheme))


def oracle_honest_return(
    ssl_scheme: SslScheme, circuit_dist: ChallengeDistribution, challenge_family: PointFamily
) -> float:
    return exact_win(leasing_spec(ssl_scheme, circuit_dist, challenge_family), *honest_return(ssl_scheme))


def oracle_keep_program(
    ssl_scheme: SslScheme, circuit_dist: ChallengeDistribution, challenge_family: PointFamily
) -> float:
    return exact_win(leasing_spec(ssl_scheme, circuit_dist, challenge_family), *keep_program(ssl_scheme))
