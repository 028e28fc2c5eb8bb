"""The committed claim table: `claims/claim_regime.csv` is what `relviews sweep`
writes for `claims/claim_regime.cfg` (the command is in that file's header).

A change that keeps results leaves the file as it is, and this test shows it
by running data seed 3's eight (setting, arm) points again. A change that
changes results regenerates the file, and its diff is the change's claim
table."""
import csv
from pathlib import Path

import numpy as np
import pytest

from relviews import training
from relviews.runconfig import load_config

CLAIMS = Path(__file__).resolve().parent.parent / "claims"

# the sweep that wrote the file, in its order, with the data seeds reduced to one
VARY = {"synth.noise_model": ["outside_global_fraction", "causal_intervention"],
        "synth.eta": ["0.5", "0.75"], "ablate.tr": ["true", "false"], "synth.seed": ["3"]}


def read_rows() -> list[dict]:
    with open(CLAIMS / "claim_regime.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_the_file_holds_the_full_sweep():
    rows = read_rows()
    assert len(rows) == 40 and list(rows[0]) == [
        "synth.noise_model", "synth.eta", "ablate.tr", "synth.seed", "train_accuracy",
        "test_accuracy", "sinkhorn_nonconverged", "distinguishability"]
    assert sorted({row["synth.seed"] for row in rows}) == ["3", "4", "5", "6", "7"]


@pytest.fixture(scope="module")
def seed_3_rows():
    run = load_config(CLAIMS / "claim_regime.cfg")
    vary = {key: [training.CONFIG_KEYS[key][2](raw) for raw in raws]
            for key, raws in VARY.items()}
    return training.sweep(vary, run.synth, run.train)


def test_data_seed_3_reproduces_the_files_rows(seed_3_rows):
    expect = [row for row in read_rows() if row["synth.seed"] == "3"]
    assert len(seed_3_rows) == len(expect) == 8
    for got, want in zip(seed_3_rows, expect):
        point = {key: training.CONFIG_KEYS[key][2](want[key]) for key in VARY}
        assert {key: got[key] for key in VARY} == point
        assert got["train_accuracy"] == float(want["train_accuracy"]), point
        assert got["test_accuracy"] == float(want["test_accuracy"]), point
        assert got["sinkhorn_nonconverged"] == int(want["sinkhorn_nonconverged"]), point
        assert np.isclose(got["distinguishability"], float(want["distinguishability"]),
                          rtol=1e-9, atol=0.0), point
