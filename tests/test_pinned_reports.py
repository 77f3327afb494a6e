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

from qlease.cli import EXIT_OK, main

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
    (
        ["ssl", "--adversary", "honest-return", "--scheme", "1,1,6"],
        99,
        "69924288b0ecc3ac17930f4d5c92898cd81bc54653066902851a0c7a191bb33f",
    ),
    (
        ["ssl", "--adversary", "keep-program", "--scheme", "1,1,6"],
        77,
        "1917ae53e6016cb67d343ea8b2795bc0596020d54a5f8c67339832ddd4f77c14",
    ),
    (
        ["cp", "--adversary", "give-to-charlie", "--scheme", "2,1,6"],
        71,
        "a8af165496ea2ef12941bc518c606f18d9ac8df0d1b19facb95a7761c2cd24b2",
    ),
]


@pytest.mark.parametrize(
    "argv,wins,sha256", PINNED, ids=[f"{argv[0]}-{argv[2]}-{argv[-1]}" for argv, _, _ in PINNED]
)
def test_same_seed_report_is_pinned(tmp_path, argv, wins, sha256):
    out = tmp_path / "report.json"
    rc = main([*argv, "--trials", TRIALS, "--seed", SEED, "--out", str(out)])
    assert rc == EXIT_OK
    data = out.read_bytes()
    assert json.loads(data)["wins"] == wins
    assert hashlib.sha256(data).hexdigest() == sha256


#: The ``--csv`` file of one run of each game (header plus one row).
PINNED_CSV = [
    (
        ["cp", "--adversary", "give-to-charlie", "--scheme", "1,1,6"],
        "a06b2c17bfa79b65e8371a861bdf11247d458afaf9faf6cc05b799af629a5a4e",
    ),
    (
        ["ssl", "--adversary", "keep-program", "--scheme", "1,1,6"],
        "18f39800647194da30f5cb0f913443838c45294a5f73d7fa0ba8ea6ff08773ed",
    ),
]


@pytest.mark.parametrize("argv,sha256", PINNED_CSV, ids=[argv[0] for argv, _ in PINNED_CSV])
def test_same_seed_csv_is_pinned(tmp_path, argv, sha256):
    out = tmp_path / "rows.csv"
    rc = main([*argv, "--trials", TRIALS, "--seed", SEED, "--csv", str(out)])
    assert rc == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
