"""Exit codes of the command line: 0 success, 2 usage or config, 3 numeric."""
import numpy as np
import pytest

from relviews import explain as ex
from relviews import synth, training
from relviews.cli import main
from relviews.transitivity import TransitivityConfig

TINY_CONFIG = """\
synth.classes = 3
synth.instances_per_class = 6
synth.views = 4
synth.dim = 8
synth.concepts_per_class = 2
encoder.heads = 2
encoder.hidden_dim = 8
train.epochs = 1
train.batch_size = 4
train.cost_hidden = 4
"""


@pytest.fixture
def tiny(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG)
    data = tmp_path / "data.txt"
    assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
    return tmp_path, config, data


def test_generate_train_eval_exit_zero(tiny, capsys):
    tmp_path, config, data = tiny
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(out)]) == 0
    assert (out / "checkpoint.txt").is_file() and (out / "report.csv").is_file()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.txt"),
                 "--data", str(data)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("accuracy ")


def test_metrics_with_macs_writes_the_library_values(tiny):
    tmp_path, config, data = tiny
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(out)]) == 0
    ckpt = out / "checkpoint.txt"
    metrics = tmp_path / "metrics"
    assert main(["metrics", "--checkpoint", str(ckpt), "--data", str(data), "--macs",
                 "--top-k-list", "2,4", "--out", str(metrics)]) == 0

    model = training.TrainedModel.load(ckpt)
    graphs = training.encode_dataset(model, synth.load(data))
    curve = ex.fidelity_sparsity_curve(graphs, model.proxies, model.cost_head, [2, 4])
    rng = np.random.default_rng(0)
    macs = []
    for k in (2, 4):
        top = ex.ExplanationSet(tuple(ex.top_k_explanation(g, k) for g in graphs),
                                model.proxies)
        rand = ex.ExplanationSet(tuple(ex.random_explanation(g, k, rng) for g in graphs),
                                 model.proxies)
        macs.append((k, ex.macs_at_k(top, rand, min(k + 1, 4), TransitivityConfig())))
    written = (metrics / "fidelity_sparsity.csv").read_text()
    assert written == ex.curve_csv(curve) and len(written.splitlines()) == 3
    written = (metrics / "macs.csv").read_text()
    assert written == ex.macs_csv(macs) and len(written.splitlines()) == 3


def test_bad_config_exits_two(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("train.no_such_key = 1\n")
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "d.txt")]) == 2


def test_unknown_option_exits_two(tiny):
    tmp_path, config, data = tiny
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(config), "--data", str(data),
              "--out", str(tmp_path / "run"), "--workers", "2"])
    assert exc.value.code == 2


def test_non_finite_feature_exits_three(tiny):
    tmp_path, config, data = tiny
    header, first, *rest = data.read_text().splitlines()
    toks = first.split()
    toks[-1] = "nan"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join([header, " ".join(toks), *rest]) + "\n")
    assert main(["train", "--config", str(config), "--data", str(bad),
                 "--out", str(tmp_path / "run")]) == 3
