"""Command-line harness.

Subcommands configure schemes and games, run them, and emit both a human
table on stdout and machine-readable artifacts on request (JSON via
--out, CSV appends via --csv).  Under --json stdout holds only the JSON
report and the human table goes to stderr.  Exit codes: 0 success, 1 a
criterion or invariant failed, 2 usage or configuration error.

All randomness flows from --seed; reports carry no timestamps, so two
runs with the same arguments produce byte-identical files.  Options may
also come from a JSON file through --config; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import copyprotect as cp
from . import designs, games, qas, suite
from .leasing import SslScheme
from .qmath import random_density, spawn_rng, trace_distance

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: ``design-check --pairs`` above this is refused: ``frame_potential`` draws all
#: indices at once, and 10^6 pairs at 6 qubits take about 96 MB and 5 minutes.
MAX_PAIRS = 10**6


class ConfigError(Exception):
    pass


def _scheme_params(text: str) -> tuple[int, int, int]:
    """``m,t,k`` from ``--scheme``, checked against the supported ranges."""
    try:
        m, t, k = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--scheme expects m,t,k (got {text!r})") from exc
    if not (1 <= m and 1 <= t):
        raise ConfigError("scheme needs m >= 1 and t >= 1")
    if m + t > 6:
        raise ConfigError("m + t above 6 qubits is outside dense design range")
    if not 1 <= k <= 20:
        raise ConfigError("key bits must lie in 1..20 for exact enumeration")
    return m, t, k


def _config_value(action: argparse.Action, key: str, value):
    """``value`` from the config file, checked against its option's type:
    flags take booleans, integer options integers, float options numbers,
    string options strings, and ``choices`` apply."""
    if action.nargs == 0:
        ok = isinstance(value, bool)
    elif action.type is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif action.type is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        value = float(value) if ok else value
    else:
        ok = isinstance(value, str)
    if not ok or (action.choices is not None and value not in action.choices):
        raise ConfigError(f"config key {key!r} has an invalid value {value!r}")
    return value


def _config_defaults(args: argparse.Namespace) -> dict:
    """The option defaults in the JSON file given by --config, each value
    typed as its option's parser would type it."""
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    options = {a.dest: a for a in args._command_parser._actions if a.default is not argparse.SUPPRESS}
    values = {}
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if attr not in options:
            raise ConfigError(f"unknown config key {key!r}")
        values[attr] = _config_value(options[attr], key, value)
    return values


def _say(args, line: str) -> None:
    """Print a human-readable line: to stderr under --json, whose report
    is then all of stdout."""
    print(line, file=sys.stderr if args.json else sys.stdout)


def _emit(args, payload: dict | list) -> None:
    text = json.dumps(payload, indent=2)
    if args.json:
        print(text)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# design-check
# ---------------------------------------------------------------------------


def cmd_design_check(args) -> int:
    q = args.qubits
    if q is None:
        raise ConfigError("--qubits is required, on the command line or in --config")
    if args.pairs is not None and not 1 <= args.pairs <= MAX_PAIRS:
        raise ConfigError(f"--pairs must lie in 1..{MAX_PAIRS}")
    if args.pairs is None and q > 2:
        raise ConfigError("qubits > 2 needs --pairs for a sampled estimate")
    design = designs.clifford_design(q)
    if args.pairs:
        fp = designs.frame_potential(design, samples=args.pairs, rng=spawn_rng(args.seed, 0))
    else:
        fp = designs.clifford_frame_potential(q)
    _say(args, f"design        {design.design_id}")
    _say(args, f"cardinality   {design.cardinality}")
    _say(args, f"frame_potential {fp:.6f}  (exact 2-design value: 2)")
    _emit(
        args,
        {
            "design_id": design.design_id,
            "qubits": q,
            "cardinality": design.cardinality,
            "frame_potential": fp,
            "pairs": args.pairs,
            "seed": args.seed,
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# qas-verify
# ---------------------------------------------------------------------------


def cmd_qas_verify(args) -> int:
    scheme = qas.build_scheme(*_scheme_params(args.scheme))
    rng = spawn_rng(args.seed, 1)
    checks: list[tuple[str, float, float, bool]] = []

    # correctness: verify(auth(.)) round trips; the corruption switch
    # desynchronizes the verification key to prove the check has teeth
    shift = 1 if args.inject_keymap_corruption else 0
    keys, states = np.empty(50, dtype=np.int64), []
    for i in range(50):
        keys[i] = rng.integers(1 << scheme.key_bits)
        states.append(random_density(scheme.message_qubits, rng))
    accept, decoded = qas.round_trips(scheme, keys, (keys + shift) % (1 << scheme.key_bits), states)
    distances = trace_distance(decoded, np.stack([state.matrix for state in states]))
    worst = max(float(np.max(np.abs(accept - 1.0))), float(np.max(distances)))
    checks.append(("correctness", worst, 1e-9, worst < 1e-9))

    # wrong-key averages
    state = random_density(scheme.total_qubits, rng)
    expected = 2.0 ** (-scheme.trap_qubits)
    if scheme.design.cardinality <= qas.MAX_EXACT_INDICES:
        avg = qas.avg_design_accept(scheme, state)
        checks.append(("wrong-key-design-avg", avg, expected, abs(avg - expected) < 1e-9))
    if min(1 << scheme.key_bits, scheme.design.cardinality) <= qas.MAX_EXACT_INDICES:
        key_avg = qas.avg_wrong_key_accept(scheme, state)
    else:
        # estimated from 500 sampled keys: the exact key sum builds one
        # element per reached index, up to 2^20 of them
        keys = rng.integers(1 << scheme.key_bits, size=500)
        key_avg = float(np.mean(qas.acceptances(scheme, keys, [state] * len(keys))))
    checks.append(
        ("wrong-key-2eps-cap", key_avg, 2 * scheme.epsilon, key_avg <= 2 * scheme.epsilon)
    )

    # key-map consistency: key k selects design index k mod |design|
    key = int(rng.integers(1 << scheme.key_bits))
    consistent = scheme.key_index(key) == key % scheme.design.cardinality
    checks.append(("key-map-consistency", float(consistent), 1.0, consistent))

    # determinism of sampled verification
    probe = qas.auth(scheme, 0, random_density(scheme.message_qubits, rng))
    a = qas.verify(scheme, 1, probe, spawn_rng(args.seed, 2))
    b = qas.verify(scheme, 1, probe, spawn_rng(args.seed, 2))
    det = a.accepted == b.accepted and a.accept_probability == b.accept_probability
    checks.append(("verify-determinism", float(det), 1.0, det))

    all_ok = all(ok for _, _, _, ok in checks)
    _say(args, f"scheme {scheme.scheme_id}  epsilon={scheme.epsilon:.4f}")
    for name, measured, bound, ok in checks:
        _say(args, f"  {'PASS' if ok else 'FAIL'}  {name:24s} measured={measured:.6g} bound={bound:.6g}")
    _emit(
        args,
        {
            "scheme": qas.scheme_params(scheme),
            "checks": [
                {"name": n, "measured": m, "bound": b, "pass": ok}
                for n, m, b, ok in checks
            ],
            "seed": args.seed,
        },
    )
    return EXIT_OK if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# cp / ssl games
# ---------------------------------------------------------------------------

CP_ADVERSARIES = ("trivial-forward", "give-to-charlie", "keysearch")
SSL_ADVERSARIES = ("honest-return", "keep-program")


def _report_game(args, rep: games.GameReport) -> int:
    """Print the report of one game run, emit it, and append its CSV row."""
    _say(args, f"game      {rep.game}   adversary {rep.adversary}")
    _say(args, f"scheme    {rep.scheme}")
    _say(args, f"trials    {rep.trials}   wins {rep.wins}")
    _say(args, f"estimate  {rep.estimate:.4f}   wilson99 [{rep.ci_lo:.4f}, {rep.ci_hi:.4f}]")
    _say(args, f"baseline  {rep.baseline:.4f}   theorem bound {rep.bound:.4f}")
    _emit(args, rep.to_json_dict())
    if args.csv:
        games.append_csv(rep, args.csv)
    return EXIT_OK


def cmd_cp(args) -> int:
    if not 0.5 <= args.r <= 1.0:
        raise ConfigError("--r (Bob's point mass) must lie in [0.5, 1]")
    m, t, k = _scheme_params(args.scheme)
    if args.adversary == "keysearch" and not 1 <= args.budget <= 1 << k:
        raise ConfigError(f"--budget must lie in 1..{1 << k} (2^k keys)")
    scheme = qas.build_scheme(m, t, k)
    spec = games.default_cp_spec(scheme, bob_r=args.r)
    # the parser and the config check keep the adversary among the choices
    adversary = {
        "trivial-forward": games.trivial_forward,
        "give-to-charlie": games.give_to_charlie,
        "keysearch": lambda s: games.keysearch_adversary(s, budget_size=args.budget),
    }[args.adversary]
    pirate, strategy = adversary(scheme)
    return _report_game(args, games.run_experiment_free(spec, pirate, strategy, args.trials, args.seed))


def cmd_ssl(args) -> int:
    if not 0.0 <= args.r <= 1.0:
        raise ConfigError("--r (verification point mass) must lie in [0, 1]")
    scheme = qas.build_scheme(*_scheme_params(args.scheme))
    ssl_scheme = SslScheme(scheme, verify_r=args.r)
    circuit = cp.ChallengeDistribution(scheme.key_bits)
    challenge = cp.PointFamily(scheme.key_bits, 0.5)
    # the parser and the config check keep the adversary among the choices
    adversary = {"honest-return": games.honest_return, "keep-program": games.keep_program}[args.adversary]
    rep = games.run_experiment_ssl(ssl_scheme, circuit, challenge, *adversary(ssl_scheme), args.trials, args.seed)
    return _report_game(args, rep)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def cmd_suite(args) -> int:
    timings = {} if args.timings else None
    results = suite.run_suite(seed=args.seed, trials=args.trials, timings=timings)
    width = max(len(r.name) for r in results)
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        _say(args, f"{flag}  {r.name:{width}s}  measured={r.measured:.6g}  bound={r.bound:.6g}  {r.note}")
    failed = [r.name for r in results if not r.passed]
    _say(args, f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if failed:
        _say(args, "failed: " + ", ".join(failed))
    _emit(args, [r.to_json_dict() for r in results])
    if timings is not None:
        width = max(map(len, timings))
        for name, seconds in timings.items():
            print(f"time  {name:{width}s}  {seconds:8.3f} s", file=sys.stderr)
    return EXIT_OK if not failed else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlease",
        description="Desk-scale copy-protection and leasing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, scheme_default="1,1,14") -> None:
        p.add_argument("--seed", type=int, default=0, help="master seed (all randomness)")
        p.add_argument("--out", type=str, default=None, help="write the JSON report here")
        p.add_argument("--json", action="store_true", help="print only the JSON report to stdout")
        p.add_argument("--config", type=str, default=None, help="JSON file with option defaults")
        if scheme_default is not None:
            p.add_argument("--scheme", type=str, default=scheme_default, help="m,t,k")
        p.set_defaults(_command_parser=p)

    p = sub.add_parser("design-check", help="cardinality and frame potential of the Clifford design")
    p.add_argument("--qubits", type=int, default=None, choices=range(1, 7))
    p.add_argument("--pairs", type=int, default=None, help="sample this many pairs instead of exhausting")
    common(p, scheme_default=None)
    p.set_defaults(func=cmd_design_check)

    p = sub.add_parser("qas-verify", help="authentication invariants for one scheme")
    common(p)
    p.add_argument(
        "--inject-keymap-corruption",
        action="store_true",
        help="testing aid: desynchronize the verification key so the correctness check fails",
    )
    p.set_defaults(func=cmd_qas_verify)

    p = sub.add_parser("cp", help="run the pirating game")
    common(p, scheme_default="1,1,6")
    p.add_argument("--adversary", type=str, default="trivial-forward", choices=CP_ADVERSARIES)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--r", type=float, default=0.5, help="mass of Bob's challenge on the point")
    p.add_argument("--budget", type=int, default=4, help="keysearch budget size")
    p.add_argument("--csv", type=str, default=None, help="append a result row to this CSV")
    p.set_defaults(func=cmd_cp)

    p = sub.add_parser("ssl", help="run the leasing game")
    common(p, scheme_default="1,1,6")
    p.add_argument("--adversary", type=str, default="honest-return", choices=SSL_ADVERSARIES)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--r", type=float, default=1.0, help="mass of the verification challenge on the point")
    p.add_argument("--csv", type=str, default=None, help="append a result row to this CSV")
    p.set_defaults(func=cmd_ssl)

    p = sub.add_parser("suite", help="run the acceptance battery")
    common(p, scheme_default=None)
    p.add_argument("--trials", type=int, default=10000, help="Monte Carlo trials per game")
    p.add_argument(
        "--timings", action="store_true", help="print each criterion's wall time to stderr (never to the report)"
    )
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's values become defaults, so flags given in argv win
            args._command_parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        if getattr(args, "trials", None) is not None and args.trials < 1:
            raise ConfigError("--trials must be positive")
        if args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        for option in ("out", "csv"):
            path = getattr(args, option, None)
            if path and Path(path).is_dir():
                raise ConfigError(f"--{option}: {path} is a directory")
            if path and not Path(path).parent.is_dir():
                raise ConfigError(f"--{option}: directory {Path(path).parent} does not exist")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
