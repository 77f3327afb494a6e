"""Same-seed game reports, pinned across commits.

Each run below writes its JSON report, or its CSV file, through the CLI;
the win count and the sha256 of the file must equal the values recorded
here.  A change that moves one of them changes what a seed produces (the
RNG call sequence, a sampled distribution, a measurement or a baseline),
which needs a stated reason, never a re-pin to make the check pass.
"""

import hashlib
import json

import pytest

from qlease import games, qas
from qlease.cli import EXIT_FAIL, EXIT_OK, main
from qlease.leasing import SslScheme

TRIALS = "200"
SEED = "11"

PINNED = [
    (
        ["cp", "--adversary", "trivial-forward", "--scheme", "1,1,6"],
        83,
        "8e6f1eed13a0e149f33239ac4b9106335c48ca0d4b025cbf823fb9d79a47b532",
    ),
    (
        ["cp", "--adversary", "give-to-charlie", "--scheme", "1,1,6"],
        67,
        "6380488678e688eb8f0fdea282f4beab9c156e6da2431798ee8150b9bb7ec445",
    ),
    (
        ["cp", "--adversary", "keysearch", "--budget", "4", "--scheme", "1,1,6"],
        80,
        "ed5f93921b3f4ce92a8b09a873f631616f718180bf127f9ee74b4940b1d6b388",
    ),
    # Re-pinned when the leasing game began to run through the pirating
    # game's trial loop: its challenge is now drawn before verification
    # measures, in the pirating game's order, which moves the seeded draws.
    (
        ["ssl", "--adversary", "honest-return", "--scheme", "1,1,6"],
        112,
        "34eeb7619370bc43be4a95f1ff982d01cec19c79838626e76d6328992d457a60",
    ),
    (
        ["ssl", "--adversary", "keep-program", "--scheme", "1,1,6"],
        64,
        "3924d079035da0b166e09379df9661fbb0eff390b457b1397ebd371fdce42de9",
    ),
    (
        ["cp", "--adversary", "give-to-charlie", "--scheme", "2,1,6"],
        71,
        "a8af165496ea2ef12941bc518c606f18d9ac8df0d1b19facb95a7761c2cd24b2",
    ),
    # Long chains of projections of one pure register (up to 64 key
    # checks per trial).
    (
        ["cp", "--adversary", "keysearch", "--budget", "64", "--scheme", "1,1,6"],
        67,
        "163228f34c158ad620f04b141f1f08e34daf3c68680642d58b66f2706e145778",
    ),
    # Measurements of 64-dimensional mixed registers.
    (
        ["ssl", "--adversary", "keep-program", "--scheme", "3,3,6"],
        10,
        "6ae0b906569521127f9e662aaf30916cf7e5473b4327571e7437cb96f0cfff74",
    ),
    # Point-centred challenges away from the default mass, and a key space
    # of 2^14 points: the sampled challenges and the exact baselines.
    (
        ["cp", "--adversary", "trivial-forward", "--r", "0.75", "--scheme", "1,1,6"],
        101,
        "2123b3111e05935e2de524e9b3386e5b930b226ce8aea3bf1e91e5c80b56a644",
    ),
    (
        ["ssl", "--adversary", "honest-return", "--r", "0.5", "--scheme", "1,1,6"],
        83,
        "bfbdb95355fe173fb362344c65f4a2472bfc4cec9718b50d8a9e45faf1f355cb",
    ),
    # The edge masses: Bob's challenge is the point itself (flat weight
    # 0), and verification never challenges at the point (peak 0, below
    # the flat weight).
    (
        ["cp", "--adversary", "trivial-forward", "--r", "1", "--scheme", "1,1,6"],
        112,
        "a09acc0354d4dca0cbe2917d3266f547f655292f9b160e589146392f08059cda",
    ),
    (
        ["ssl", "--adversary", "honest-return", "--r", "0", "--scheme", "1,1,6"],
        43,
        "3437edf6050a1221415adb58e3e93060423a5261450870c6336968ec408fcb44",
    ),
    (
        ["cp", "--adversary", "trivial-forward", "--scheme", "1,1,14"],
        86,
        "68f280f9eb4baa24029265542893f053e074a5e7580edd72c098fb1886beebe0",
    ),
    # Master seeds of one, two and five 32-bit words: the trial
    # generators are derived from each seed's words in blocks.
    (
        ["cp", "--adversary", "give-to-charlie", "--seed", "0", "--scheme", "1,1,6"],
        70,
        "c8f41d58be43ce1a6d30c9a74943caa731cd677712b6028f2ec1a3bf82bf356e",
    ),
    (
        ["cp", "--adversary", "give-to-charlie", "--seed", "4294967296", "--scheme", "1,1,6"],
        66,
        "906aea87b78150567e206457b1807946989798cea8dec092de043c658491a480",
    ),
    (
        [
            "cp", "--adversary", "give-to-charlie",
            "--seed", "340282366920938463463374607431768211457", "--scheme", "1,1,6",
        ],
        79,
        "6e18279071a8bf76cbb913979b983de07f4194d49d2798a05d7a1b4c6f08a7ad",
    ),
    # Indexed (not enumerated) designs at 3 and 6 qubits: the evaluation
    # measurements come from elements built on demand.
    (
        ["cp", "--adversary", "keysearch", "--budget", "16", "--scheme", "2,1,6"],
        62,
        "2afd01704625eab029437856b030d23226124b24b0b0d63188d9d16f2144c532",
    ),
    (
        ["cp", "--adversary", "keysearch", "--budget", "64", "--scheme", "3,3,6"],
        58,
        "bcabbc4adcb5256ea5a178e574e7c0bbd0ff74700ad595bc0806ed95da3356ed",
    ),
    (
        ["ssl", "--adversary", "keep-program", "--scheme", "2,1,6"],
        60,
        "af93a13862670a26e0c27afb8b335912542a7edfd9fc1ba6f02d346af18aebdd",
    ),
    (
        ["cp", "--adversary", "trivial-forward", "--scheme", "3,3,6"],
        61,
        "b9721abf2273db4387f90ce44640308776298a733e648faa9639dfe42d816b10",
    ),
]


def _pin_id(argv):
    """``game-adversary-scheme``, with ``-budgetB`` after the adversary
    when the budget is not the CLI default of 4, ``-rR`` when the point
    mass is given and ``-seedS`` when the seed is not :data:`SEED`."""
    budget = argv[argv.index("--budget") + 1] if "--budget" in argv else "4"
    adversary = argv[2] if budget == "4" else f"{argv[2]}-budget{budget}"
    for flag in ("--r", "--seed"):
        if flag in argv:
            adversary += f"-{flag[2:]}{argv[argv.index(flag) + 1]}"
    return f"{argv[0]}-{adversary}-{argv[-1]}"


@pytest.mark.parametrize("argv,wins,sha256", PINNED, ids=[_pin_id(argv) for argv, _, _ in PINNED])
def test_same_seed_report_is_pinned(tmp_path, argv, wins, sha256):
    out = tmp_path / "report.json"
    seed = [] if "--seed" in argv else ["--seed", SEED]
    rc = main([*argv, "--trials", TRIALS, *seed, "--out", str(out)])
    assert rc == EXIT_OK
    data = out.read_bytes()
    assert json.loads(data)["wins"] == wins
    assert hashlib.sha256(data).hexdigest() == sha256


#: Runs of more than one block of trials (``qmath.SPAWN_BLOCK`` = 256),
#: whose honest measurements are decided a block at a time: the zoo on an
#: enumerated design, keysearch's chain on an indexed one, and mixed
#: 64-dimensional registers.  Recorded from the trial loop that measured
#: one trial at a time.
PINNED_BLOCKS = [
    (
        ["cp", "--adversary", "give-to-charlie", "--scheme", "1,1,6", "--trials", "600"],
        196,
        "235b28f8f8c1883f052d80c17c34964e601192b63f6b8441255ae4de2262344b",
    ),
    (
        ["cp", "--adversary", "keysearch", "--budget", "16", "--scheme", "2,1,6", "--trials", "600"],
        176,
        "b2dcb330ddcc71633a8b87ac97b0f7c65be3277057e21f608f0349e685f26a5f",
    ),
    # Up to 64 key checks per trial on the indexed 6-qubit design, over
    # three blocks; recorded from the search run one trial at a time.
    (
        ["cp", "--adversary", "keysearch", "--budget", "64", "--scheme", "3,3,6", "--trials", "600"],
        155,
        "870112c0162cf566b5e57e598d7816e2c3ebaf0cf05fdcf52a5751010bf8d431",
    ),
    (
        ["ssl", "--adversary", "keep-program", "--scheme", "3,3,6", "--trials", "300"],
        11,
        "8880ecfacbb13c89aea3cd68cbe7652f8e3f1f93b7f3f84156a2d80e93ffe4f9",
    ),
]


@pytest.mark.parametrize(
    "argv,wins,sha256", PINNED_BLOCKS, ids=[f"{a[0]}-{a[2]}-{a[-3]}" for a, _, _ in PINNED_BLOCKS]
)
def test_reports_over_several_blocks_are_pinned(tmp_path, argv, wins, sha256):
    out = tmp_path / "report.json"
    assert main([*argv, "--seed", "1", "--out", str(out)]) == EXIT_OK
    data = out.read_bytes()
    assert json.loads(data)["wins"] == wins
    assert hashlib.sha256(data).hexdigest() == sha256


#: The ``--csv`` file of one run of each game (header plus one row).
PINNED_CSV = [
    (
        ["cp", "--adversary", "give-to-charlie", "--scheme", "1,1,6"],
        "a06b2c17bfa79b65e8371a861bdf11247d458afaf9faf6cc05b799af629a5a4e",
    ),
    # Re-pinned for the same reason as the JSON ssl entries above.
    (
        ["ssl", "--adversary", "keep-program", "--scheme", "1,1,6"],
        "05655ee22b737477de10c9bd3ea168a3343fd87dbae9e9e6b46e59419b6b1c0d",
    ),
]


@pytest.mark.parametrize("argv,sha256", PINNED_CSV, ids=[argv[0] for argv, _ in PINNED_CSV])
def test_same_seed_csv_is_pinned(tmp_path, argv, sha256):
    out = tmp_path / "rows.csv"
    rc = main([*argv, "--trials", TRIALS, "--seed", SEED, "--csv", str(out)])
    assert rc == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


#: The ``qas-verify`` report at seed 1: the exact design average (2-qubit
#: design), the exact key average (up to MAX_EXACT_INDICES reached indices)
#: and the 500-key estimate above it (3,3,20); 3,3,6 round-trips through
#: 64x8 isometries of an indexed design.
PINNED_QAS_VERIFY = [
    ("1,1,14", "8e71991961e328c7eb2ccd23c94550b5f902f2577b2a9aa63881f2b578459ed5"),
    ("2,2,10", "ac7fd94d8c82ef79a47c23c16ec662f548b6c450609f5027ab7f6d5b097e1565"),
    ("3,3,20", "eb4fb2d8cc799e36ddd6d347ad72abeb569bfc3e387eed9897fa37e00e8c5e77"),
    ("3,3,6", "05531e875366c3e6824962e3ed83d498d18ab7356ac415aa7d938b003d1337f0"),
]


@pytest.mark.parametrize("scheme,sha256", PINNED_QAS_VERIFY, ids=[s for s, _ in PINNED_QAS_VERIFY])
def test_same_seed_qas_verify_is_pinned(tmp_path, scheme, sha256):
    out = tmp_path / "qas-verify.json"
    rc = main(["qas-verify", "--scheme", scheme, "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_same_seed_corrupted_qas_verify_is_pinned(tmp_path):
    """The desynchronised verification key at seed 1: two of the 50
    round trips accept with probability exactly 0, so the run takes the
    maximally mixed branch of the decode (``tests/test_qas.py`` checks
    its bits)."""
    out = tmp_path / "qas-verify.json"
    rc = main(["qas-verify", "--scheme", "1,1,14", "--seed", "1", "--inject-keymap-corruption", "--out", str(out)])
    assert rc == EXIT_FAIL
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "269b83be66fc4c75fd25c51d489edaf07a94887a6510fc65d3d3de0b67a03705"
    )


#: ``repr`` of ``games.exact_win`` for each zoo split at 3,3,10: 1,024 reached
#: indices of the indexed 6-qubit design, read as trap-zero columns.
PINNED_EXACT_WIN_3_3_10 = [
    ("trivial-forward", "0.40169318563660417"),
    ("give-to-charlie", "0.40169318563660417"),
    ("honest-return", "0.5"),
    ("keep-program", "0.100423296409151"),
]


def test_exact_win_at_3_3_10_is_pinned():
    scheme = qas.build_scheme(3, 3, 10)
    spec = games.default_cp_spec(scheme)
    ssl = SslScheme(scheme)
    leasing = games.leasing_spec(ssl, spec.circuit_dist, spec.charlie_family)
    games_by_split = {
        "trivial-forward": (spec, games.trivial_forward(scheme)),
        "give-to-charlie": (spec, games.give_to_charlie(scheme)),
        "honest-return": (leasing, games.honest_return(ssl)),
        "keep-program": (leasing, games.keep_program(ssl)),
    }
    for split, value in PINNED_EXACT_WIN_3_3_10:
        game, adversary = games_by_split[split]
        assert repr(games.exact_win(game, *adversary)) == value, split
