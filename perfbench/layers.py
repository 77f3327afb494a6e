"""Which qlease functions are traced, and the per-layer metrics made from them.

Layers are the package modules.  A span is named ``<module>.<function>``
(or ``<module>.<Class>`` for a constructor, ``<module>.<Class>.<method>``
for a method).  Each span reports some of: its call count (``calls``),
its self time (``self_s``), its time with children (``s``), and the
number of distinct inputs it was asked for (``builds`` or ``distinct``).
Constructors are traced through ``__post_init__``, where the validation
runs.
"""

from __future__ import annotations

from tracer import Target

CALLS_SELF = ("calls", "self_s")
INPUTS = ("calls", "distinct", "self_s")
UNITS = {"calls": "count", "distinct": "count", "builds": "count", "self_s": "s", "s": "s"}


def _scheme_and_int(scheme, value, *args, **kwargs):
    return scheme.scheme_id, int(value)


def _design_and_index(design, i, *args, **kwargs):
    return design.design_id, int(i)


def _fn(module: str, attr: str, report=CALLS_SELF, key=None):
    return Target(f"{module}.{attr}", f"qlease.{module}", attr, key), report


def _method(module: str, cls: str, attr: str, span: str, report=CALLS_SELF, **kw):
    return Target(span, f"qlease.{module}:{cls}", attr, **kw), report


#: The exact criteria of the ``exact`` workload: suite function -> criterion name.
CRITERIA = {
    "c01_qas_correctness": "qas-correctness",
    "c02_wrong_key_bound": "wrong-key-bound",
    "c03_design_certificate": "design-certificate",
    "c04_pairwise_independence": "pairwise-independence",
    "c05_eps_uniform": "eps-uniform-bound",
    "c06_protection_correctness": "protection-correctness",
    "c07_trace_distance_orthogonal": "trace-distance-orthogonal",
    "c08_reusability": "reusability",
    "c09_mix_correctness": "mix-worst-case-correctness",
    "c10_baselines": "baselines",
}

#: Adversaries whose per-trial cost is reported, as the CLI names them.
ADVERSARIES = (
    "trivial-forward",
    "give-to-charlie",
    "honest-return",
    "keep-program",
    "keysearch-1",
    "keysearch-4",
    "keysearch-16",
    "keysearch-64",
)

#: (traced callable, metrics it reports).  ``designs.clifford_enumerate.s``
#: is replaced by its set-up time, since set-up is where it does its work.
LAYERS = [
    _fn("qmath", "measure_projective"),
    _fn("qmath", "embed_operator"),
    _fn("qmath", "apply_channel"),
    _method("qmath", "DensityOperator", "__post_init__", "qmath.DensityOperator"),
    _method("qmath", "PureState", "__post_init__", "qmath.PureState"),
    _fn("qmath", "trace_distance"),
    _fn("qmath", "partial_trace"),
    _fn("designs", "clifford_enumerate", ("s",)),
    _method("designs", "IndexedCliffordDesign", "element", "designs.element",
            ("calls", "builds", "self_s"), key=_design_and_index),
    _fn("designs", "frame_potential"),
    _fn("qas", "auth"),
    _fn("qas", "verify"),
    _fn("qas", "accept_probability"),
    _fn("qas", "acceptance_by_index"),
    _fn("qas", "auth_isometry"),
    _fn("qas", "avg_wrong_key_accept"),
    _fn("qas", "build_scheme"),
    _fn("copyprotect", "protect", INPUTS, _scheme_and_int),
    _fn("copyprotect", "accept_projector", INPUTS, _scheme_and_int),
    _fn("copyprotect", "correctness_exact"),
    _fn("copyprotect", "post_evaluation_state"),
    _fn("copyprotect", "mix_error_exact"),
    _method("copyprotect", "ChallengeDistribution", "__post_init__", "copyprotect.ChallengeDistribution"),
    _fn("leasing", "verify_distribution"),
    _fn("games", "run_experiment_free", ("self_s",)),
    _fn("games", "run_experiment_ssl", ("self_s",)),
    _method("games", "PirateMap", "split", "games.PirateMap.split"),
    _method("games", "KeysearchPirate", "split", "games.KeysearchPirate.split"),
    # FixedAnswer and PointGuessStrategy override answer; all count here
    _method("games", "MeasurementStrategy", "answer", "games.MeasurementStrategy.answer",
            subclasses=True),
    _fn("games", "p_marg", ("self_s",)),
    _fn("games", "p_ind", ("self_s",)),
    *[(Target(f"suite.{name}", "qlease.suite", fn), ("s",)) for fn, name in CRITERIA.items()],
    _fn("cli", "main"),
]

TARGETS = [target for target, _ in LAYERS]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{target.span}.{metric}": UNITS[metric]
        for target, report in LAYERS
        for metric in report
    }
    for adv in ADVERSARIES:
        units[f"games.{adv}.trial_ms"] = "ms"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def pass_metrics(stats: dict[str, tuple[int, float, float, int]]) -> dict[str, float]:
    """Span metrics of one traced pass, from a tracer snapshot taken after
    it (``calls, s, self_s, distinct inputs`` per span).  Layers a
    workload never reaches read 0."""
    out: dict[str, float] = {}
    for target, report in LAYERS:
        calls, total, self_s, distinct = stats.get(target.span, (0, 0.0, 0.0, 0))
        values = {"calls": calls, "s": total, "self_s": self_s, "distinct": distinct, "builds": distinct}
        for metric in report:
            out[f"{target.span}.{metric}"] = values[metric]
    return out
