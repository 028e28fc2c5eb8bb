"""Exit codes of the command line: 0 success, 2 usage or config, 3 numeric."""
import numpy as np
import pytest

from relviews import explain as ex
from relviews import synth, training
from relviews.cli import main
from relviews.errors import format_value
from relviews.runconfig import load_config
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


def test_generate_then_train_writes_the_library_run(tiny, capsys):
    # the data file holds `generate(cfg)` bit for bit, so the CLI trains the same model
    tmp_path, config, data = tiny
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(out)]) == 0
    run = load_config(config)
    report, model = training.train(synth.generate(run.synth), run.train)
    model.save(tmp_path / "library.txt")
    assert (out / "report.csv").read_text() == report.losses_csv()
    assert (out / "checkpoint.txt").read_bytes() == (tmp_path / "library.txt").read_bytes()
    assert capsys.readouterr().out.splitlines()[-1] == f"checkpoint {out / 'checkpoint.txt'}"


def test_train_accuracies_equal_eval_of_the_saved_checkpoint(tiny, capsys):
    # train -> save -> load -> eval: the accuracies `relviews train` prints are
    # those of its checkpoint on the training and the test file
    tmp_path, config, data = tiny
    test_data = tmp_path / "test.txt"
    assert main(["generate", "--config", str(config), "--out", str(test_data),
                 "--seed", "7"]) == 0
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--test-data", str(test_data), "--out", str(out)]) == 0
    train_line, test_line, _ = capsys.readouterr().out.splitlines()
    evals = []
    for path in (data, test_data):
        assert main(["eval", "--checkpoint", str(out / "checkpoint.txt"),
                     "--data", str(path)]) == 0
        evals.append(capsys.readouterr().out)
    assert train_line == "train " + evals[0].rstrip("\n")
    assert test_line == "test " + evals[1].rstrip("\n")


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


def test_train_in_which_no_proxy_update_converges_exits_three(tiny, capsys):
    tmp_path, config, data = tiny
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err.endswith(" non-converged proxy updates 0\n")
    config.write_text(TINY_CONFIG + "sinkhorn.max_iters = 1\nsinkhorn.tol = 1e-15\n")
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 3
    log, failure = capsys.readouterr().err.splitlines()
    count = failure.split()[4]
    assert log.endswith(f" non-converged proxy updates {count}")
    assert failure == f"numeric failure: none of {count} proxy updates converged"


def _splice(prefix, new, offset=0, count=1):
    """Edit putting `new` in place of `count` lines, starting `offset` lines after
    the first line that starts with `prefix`."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix)) + offset
        return lines[:i] + new + lines[i + count:]
    return edit


def _first_value(prefix, token):
    """Edit putting `token` in place of the first value of the tensor whose
    header line starts with `prefix`."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix)) + 1
        return lines[:i] + [" ".join([token, *lines[i].split()[1:]])] + lines[i + 1:]
    return edit


@pytest.fixture
def trained(tiny, capsys):
    tmp_path, config, data = tiny
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    return tmp_path / "run" / "checkpoint.txt", data


@pytest.mark.parametrize("edit, message", [
    (_splice("tensor cost.W1 ", ["0.5 x1"], offset=1),
     "checkpoint tensor cost.W1: could not convert string to float: 'x1'"),
    (_splice("tensor cost.W1 ", ["tensor cost.W1 4,x"]),
     "checkpoint tensor cost.W1: bad dims '4,x'"),
    (_splice("tensor cost.b2 ", [], count=2), "missing tensor cost.b2"),
    (_splice("tensor proxy1.nodes ", ["tensor proxy1.nodes 1,2", "0 0"], count=2),
     "tensor proxy1.nodes: shape (1, 2) does not fit hidden_dim 8"),
    (_splice("config encoder.heads=", []), "missing config key 'encoder.heads'"),
    (_splice("config encoder.layers=", ["config encoder.layers=two"]),
     "encoder.layers: expected an integer, got 'two'"),
    (_splice("config train.seed=", ["config train.no_such_key=1"], count=0),
     "unknown config key 'train.no_such_key'"),
    (_splice("config train.seed=", ["config train.seed=6"], offset=1, count=0),
     "duplicate checkpoint config key 'train.seed'"),
    (_splice("tensor cost.b2 ", ["tensor cost.b2 1", "0"], offset=2, count=0),
     "duplicate checkpoint tensor cost.b2"),
    (_first_value("tensor cost.W1 ", "nan"), "checkpoint tensor cost.W1: non-finite value"),
    (_first_value("tensor proxy1.nodes ", "-inf"),
     "checkpoint tensor proxy1.nodes: non-finite value"),
    # format 1 wrote proxy edge tensors; format 2 knows no such tensor
    (_splice("tensor proxy1.nodes ", ["tensor proxy1.edges 10,8", " ".join("0" * 80)], count=2),
     "unknown tensor proxy1.edges"),
    (_splice("tensor proxy1.nodes ", ["tensor proxy1.edges 10,2", " ".join("0" * 20)], count=0),
     "unknown tensor proxy1.edges"),
    (_splice("tensor proxy1.nodes ", ["tensor proxy1.vector 8", " ".join("0" * 8)], count=0),
     "tensor proxy1.vector does not belong to a checkpoint with ablate.pd=true"),
    (_splice("config ablate.pd=", ["config ablate.pd=false"]),
     "tensor proxy0.nodes does not belong to a checkpoint with ablate.pd=false"),
    (_splice("config train.proxy_momentum=", ["config train.proxy_momentum=1.5"]),
     "proxy_momentum must lie in [0, 1]"),
    (_splice("config sinkhorn.epsilon=", ["config sinkhorn.epsilon=nan"]),
     "sinkhorn.epsilon: expected a finite number, got 'nan'"),
    # proxy ids must be ASCII integers as `save` writes them, so no two alias one class
    (_splice("tensor proxy1.nodes ", ["tensor proxy--1.nodes 5,8"]),
     "unknown tensor proxy--1.nodes"),
    (_splice("tensor proxy1.nodes ", ["tensor proxy\u00b2.nodes 5,8"]),
     "unknown tensor proxy\u00b2.nodes"),
    (_splice("tensor proxy1.nodes ", ["tensor proxy01.nodes 5,8"]),
     "unknown tensor proxy01.nodes"),
    (_splice("tensor proxy1.nodes ", ["tensor proxy-0.nodes 5,8", " ".join("0" * 40)], count=0),
     "unknown tensor proxy-0.nodes"),
], ids=["value_token", "dims", "cost_tensor", "proxy_width",
        "missing_key", "bad_int", "unknown_key", "duplicate_key", "duplicate_tensor",
        "nan_value", "inf_proxy", "proxy_nodes", "legacy_edge_width", "vector_in_graph_proxies",
        "graph_in_vector_proxies", "proxy_momentum", "nan_config_value", "double_minus_id",
        "superscript_id", "leading_zero_id", "minus_zero_id"])
def test_corrupt_checkpoint_exits_two(trained, capsys, edit, message):
    ckpt, data = trained
    bad = ckpt.with_name("bad.txt")
    bad.write_text("\n".join(edit(ckpt.read_text().splitlines())) + "\n")
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: {message}\n"


def test_explain_writes_one_instance_graph_per_instance(trained, capsys):
    ckpt, data = trained
    out = ckpt.parent / "explain"
    assert main(["explain", "--checkpoint", str(ckpt), "--data", str(data),
                 "--top-k", "3", "--out", str(out)]) == 0
    count = len(synth.load(data))
    assert sorted(p.name for p in out.iterdir()) == [f"instance_{i:04d}.dot" for i in range(count)]
    for path in out.iterdir():
        lines = path.read_text().splitlines()
        assert [line.split()[0] for line in lines if "shape=" in line] == ["v0", "v1", "v2", "v3"]
        assert sum(" -- " in line for line in lines) == 6
    assert capsys.readouterr().out == f"wrote {count} instance graphs to {out}\n"


def test_checkpoint_booleans_parse_like_run_configs(trained, capsys):
    ckpt, data = trained
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    expect = capsys.readouterr().out
    yes = ckpt.with_name("yes.txt")
    yes.write_text(ckpt.read_text().replace("config ablate.cg=true\n", "config ablate.cg=yes\n"))
    assert training.TrainedModel.load(yes).config.ablations.use_complementarity_graph is True
    assert main(["eval", "--checkpoint", str(yes), "--data", str(data)]) == 0
    assert capsys.readouterr().out == expect


def test_unreadable_checkpoint_exits_two(trained, capsys):
    ckpt, data = trained
    assert main(["eval", "--checkpoint", str(ckpt.parent), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(ckpt.parent) in err


@pytest.mark.parametrize("kind", ["checkpoint", "dataset", "config"])
def test_file_that_is_not_utf8_text_exits_two(trained, capsys, kind):
    ckpt, data = trained
    binary = ckpt.with_name("binary")
    binary.write_bytes(b"relviews \xff\xfe\x00\x01\n")
    argv = {"checkpoint": ["eval", "--checkpoint", str(binary), "--data", str(data)],
            "dataset": ["eval", "--checkpoint", str(ckpt), "--data", str(binary)],
            "config": ["train", "--config", str(binary), "--data", str(data),
                       "--out", str(ckpt.parent / "again")]}[kind]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {binary}: not a {kind} file: byte 9 is not "
                                       "UTF-8 text\n")


def test_data_file_without_records_exits_two(trained, capsys):
    ckpt, data = trained
    empty = data.with_name("empty.txt")
    synth.save(synth.SynthDataset(synth.load(data).config, []), empty)
    assert "tensor embeddings 0,5,8\n\n" in empty.read_text()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: dataset file has no instances\n"


# The start of the tiny config's data file as format 2 wrote it: the config
# as key=value tokens after the format line, then one record per instance.
FORMAT_2_DATA = """\
relviews-synth 2 classes=3 instances_per_class=6 views=4 dim=8 eta=0.0 \
noise_model=outside_global_fraction concepts_per_class=2 sigma=0.1 seed=0
0 1111 0 0 0 0 -0.00720603858 -0.144304162 0.157333806 0.101913516 -0.504537871
"""


@pytest.mark.parametrize("first, message", [
    ("relviews-synth 1", "dataset format 'relviews-synth 1' is not read by this version, "
                         "which reads 'relviews-synth 3'; generate the data again"),
    ("relviews-synth 12", "dataset format 'relviews-synth 12' is not read by this version, "
                          "which reads 'relviews-synth 3'; generate the data again"),
    ("relviews-checkpoint 2", None),
    (None, "dataset format 'relviews-synth 2' is not read by this version, "
           "which reads 'relviews-synth 3'; generate the data again"),
], ids=["format_1", "format_12", "checkpoint", "format_2"])
def test_data_file_of_another_format_exits_two(trained, capsys, first, message):
    # the config lines and tensors that follow the format line are format 3's
    ckpt, data = trained
    bad = data.with_name("other.txt")
    if first is None:
        bad.write_text(FORMAT_2_DATA)
    else:
        bad.write_text(data.read_text().replace("relviews-synth 3\n", f"{first}\n", 1))
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(bad)]) == 2
    expect = f"{bad}: {message}" if message else f"not a dataset file: {bad}"
    assert capsys.readouterr().err == f"error: {expect}\n"


def _config_line(key, value):
    return _splice(f"config {key}=", [f"config {key}={value}"])


@pytest.mark.parametrize("edit, message", [
    (_first_value("tensor embeddings ", "abc"),
     "dataset tensor embeddings: could not convert string to float: 'abc'"),
    (_first_value("tensor embeddings ", "nan"), "dataset tensor embeddings: non-finite value"),
    (_first_value("tensor embeddings ", "inf"), "dataset tensor embeddings: non-finite value"),
    (_splice("config classes=", ["junk"], count=0), "unrecognized dataset line: 'junk'"),
    (_config_line("noise_model", "nosuch"),
     "noise_model: unknown noise model 'nosuch' (one of: uniform_whole_image, "
     "outside_global_fraction, causal_intervention)"),
    (_splice("config sigma=", []), "missing config key 'sigma'"),
    (_first_value("tensor clean ", "1x2?"),
     "dataset tensor clean: could not convert string to float: '1x2?'"),
    (_config_line("sigma", "nan"), "sigma: expected a finite number, got 'nan'"),
    (_config_line("sigma", "-0.1"), "noise_scale must be finite and non-negative"),
    (_config_line("classes", "3.0"), "classes: expected an integer, got '3.0'"),
    (_config_line("eta", "low"), "eta: expected a number, got 'low'"),
    (_splice("config seed=", ["config bogus=1"], count=0), "unknown config key 'bogus'"),
    (_splice("config seed=", ["config seed=9"], offset=1, count=0),
     "duplicate dataset config key 'seed'"),
    (_first_value("tensor labels ", "9"), "tensor labels: value 9 is not an integer in 0..2"),
    (_first_value("tensor sources ", "-7"),
     "tensor sources: value -7 is not an integer in -1..2"),
    (_first_value("tensor labels ", "1.5"),
     "tensor labels: value 1.5 is not an integer in 0..2"),
    (_first_value("tensor clean ", "2"), "tensor clean: value 2 is not an integer in 0..1"),
    (_splice("tensor embeddings ", ["tensor embeddings 18,8,5"]),
     "tensor embeddings: shape (18, 8, 5), but 18 instances of views=4 and dim=8 take "
     "(18, 5, 8)"),
    (_splice("tensor sources ", [], count=2), "missing tensor 'sources'"),
    (_splice("tensor labels ", ["tensor weights 1", "0.5"], count=0),
     "unknown tensor 'weights'"),
], ids=["record_token", "embedding_nan", "embedding_inf", "header_token", "model",
        "missing_key", "mask", "sigma_nan", "sigma_negative", "classes_token", "eta_token",
        "unknown_key", "duplicate_key", "label", "source", "fractional_label", "clean_two",
        "embeddings_shape", "missing_tensor", "unknown_tensor"])
def test_malformed_data_file_exits_two(tiny, capsys, edit, message):
    tmp_path, config, data = tiny
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(edit(data.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--data", str(bad),
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("vary, message", [
    (["synth.eta=0.1,abc"], "--vary synth.eta: expected a number, got 'abc'"),
    (["synth.noise_model=nosuch"],
     "--vary synth.noise_model: unknown noise model 'nosuch' (one of: uniform_whole_image, "
     "outside_global_fraction, causal_intervention)"),
    (["encoder.layers=2,x"], "--vary encoder.layers: expected an integer, got 'x'"),
    (["synth.eta="], "--vary synth.eta: no values given"),
    (["synth.noise_model= , "], "--vary synth.noise_model: no values given"),
    (["encoder.layers=,"], "--vary encoder.layers: no values given"),
    (["ablate.tr=true,maybe"], "--vary ablate.tr: expected a boolean, got 'maybe'"),
    (["encoder.depth=1,2"], "--vary encoder.depth: unknown key"),
    (["synth.eta=0.5", "synth.seed=1", "synth.eta=0.25"], "--vary synth.eta: key given twice"),
    (["synth.eta"], "--vary synth.eta: expected key=v1,v2,..."),
    # the first point is valid: the second is refused before any data is generated
    (["train.batch_size=4,0"], "train.batch_size=0: epochs and batch_size must be >= 1"),
    (["synth.eta=0.5,1.5", "ablate.cg=false"],
     "synth.eta=1.5, ablate.cg=false: noise_rate must lie in [0, 1]"),
], ids=["eta_list", "models", "depth_list", "empty_eta_list", "empty_models",
        "empty_depth_list", "bool_token", "unknown_key", "duplicate_key", "missing_equals",
        "invalid_point", "invalid_synth_point"])
def test_bad_sweep_list_exits_two(tiny, capsys, monkeypatch, vary, message):
    tmp_path, config, _ = tiny

    def no_data(*args, **kwargs):
        raise AssertionError("data generated")
    monkeypatch.setattr(training, "generate", no_data)
    capsys.readouterr()
    argv = [arg for key in vary for arg in ("--vary", key)]
    assert main(["sweep", "--config", str(config), *argv,
                 "--out", str(tmp_path / "rows.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command", ["sweep-noise", "sweep-depth"])
def test_deleted_sweep_commands_exit_two(tiny, capsys, command):
    _, config, _ = tiny
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config)])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_bad_top_k_list_exits_two(trained, capsys):
    ckpt, data = trained
    out = ckpt.parent / "metrics"
    for raw, message in (("2,x", "expected an integer, got 'x'"),
                         ("", "no values given")):
        assert main(["metrics", "--checkpoint", str(ckpt), "--data", str(data),
                     "--top-k-list", raw, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --top-k-list: {message}\n"
        assert not out.exists()


def test_sweep_writes_one_library_row_per_point_in_product_order(tiny, capsys):
    tmp_path, config, _ = tiny
    argv = ["sweep", "--config", str(config), "--vary", "synth.seed=3,4",
            "--vary", "synth.noise_model=causal_intervention", "--vary", "ablate.tr=true,false"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    header, *lines = first.read_text().splitlines()
    assert header == ("synth.seed,synth.noise_model,ablate.tr,train_accuracy,test_accuracy,"
                      "sinkhorn_nonconverged,distinguishability")
    assert [line.split(",")[:3] for line in lines] == [
        [seed, "causal_intervention", tr] for seed in ("3", "4") for tr in ("true", "false")]
    run = load_config(config)
    rows = training.sweep({"synth.seed": [3, 4],
                           "synth.noise_model": [synth.NoiseModel.CAUSAL_INTERVENTION],
                           "ablate.tr": [True, False]}, run.synth, run.train)
    assert lines == [",".join(map(format_value, row.values())) for row in rows]
    assert capsys.readouterr().out == (f"wrote 4 rows to {first}\n"
                                       f"wrote 4 rows to {second}\n")


def _data_with(tmp_path, name, key, value):
    """Generate a data file from the tiny config with one key's value replaced."""
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in TINY_CONFIG.splitlines()]
    config = tmp_path / f"{name}.cfg"
    config.write_text("\n".join(lines) + "\n")
    data = tmp_path / f"{name}.txt"
    assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
    return data


@pytest.mark.parametrize("config_line, vary", [
    ("ablate.pd = false\n", []),
    ("", ["--vary", "ablate.pd=true,false"]),
], ids=["ablate.pd", "varied_ablate.pd"])
def test_sweep_noise_without_graph_matching_exits_two_before_training(
        tmp_path, capsys, monkeypatch, config_line, vary):
    # with PD off, the TR-off point is the TR-on model trained again
    config = tmp_path / "off.cfg"
    config.write_text(TINY_CONFIG + config_line)
    out = tmp_path / "rows.csv"

    def no_data(*args, **kwargs):
        raise AssertionError("data generated")
    monkeypatch.setattr(training, "generate", no_data)
    assert main(["sweep", "--config", str(config), "--vary", "synth.eta=0.5", *vary,
                 "--vary", "ablate.tr=true,false", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: ablate.tr: varying TR compares TR on with TR "
                                       "off, which train the same model under "
                                       "ablate.pd = false\n")
    assert not out.exists()


def test_sweep_on_a_class_of_one_exits_two(tmp_path, capsys):
    config = tmp_path / "one.cfg"
    config.write_text(TINY_CONFIG.replace("synth.instances_per_class = 6",
                                          "synth.instances_per_class = 1"))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--vary", "synth.eta=0.5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: class 0 has 1 instance; a stratified split "
                                       "needs at least 2 per class\n")
    assert not out.exists()


@pytest.mark.parametrize("views", [2, 6])
def test_eval_on_other_view_counts_exits_zero(trained, capsys, views):
    ckpt, _ = trained
    data = _data_with(ckpt.parent.parent, f"views{views}", "synth.views", views)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    assert capsys.readouterr().out.startswith("accuracy ")


def test_metrics_on_a_class_without_proxy_exits_two(trained, capsys):
    ckpt, _ = trained
    data = _data_with(ckpt.parent.parent, "four", "synth.classes", 4)
    capsys.readouterr()
    out = ckpt.parent / "metrics"
    assert main(["metrics", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {ckpt} has no proxy for class 3 of {data}\n"
    assert not out.exists()


def test_macs_on_explanations_above_the_clique_limit_exits_two(trained, capsys):
    # 64 views: k = 64 keeps 65 nodes, past the 64 that clique counting takes
    ckpt, _ = trained
    data = _data_with(ckpt.parent.parent, "views64", "synth.views", 64)
    capsys.readouterr()
    out = ckpt.parent / "metrics"
    assert main(["metrics", "--checkpoint", str(ckpt), "--data", str(data), "--macs",
                 "--top-k-list", "2,64", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --macs: explanations of 65 nodes exceed the 64 "
                                       "nodes that clique counting takes; lower --top-k-list\n")
    assert not out.exists()
    assert main(["metrics", "--checkpoint", str(ckpt), "--data", str(data), "--macs",
                 "--top-k-list", "63", "--out", str(out)]) == 0
    assert (out / "macs.csv").read_text().startswith("k,macs\n63,")


@pytest.mark.parametrize("command", ["eval", "explain", "metrics"])
def test_data_of_another_feature_dim_exits_two_and_names_both_files(trained, capsys, command):
    ckpt, _ = trained
    data = _data_with(ckpt.parent.parent, "dim6", "synth.dim", 6)
    capsys.readouterr()
    out = ckpt.parent / "out"
    argv = [command, "--checkpoint", str(ckpt), "--data", str(data)]
    assert main(argv if command == "eval" else [*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {data} has feature dim 6, but {ckpt} takes 8\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["explain", "--top-k", "-2"], "--top-k: explanation size must be non-negative, got -2"),
    (["metrics", "--top-k-list", "2,-1"],
     "--top-k-list: explanation size must be non-negative, got -1"),
], ids=["top_k", "top_k_list"])
def test_negative_explanation_size_exits_two(trained, capsys, argv, message):
    ckpt, data = trained
    out = ckpt.parent / "out"
    assert main([*argv, "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_eval_on_a_class_without_proxy_exits_two(trained, capsys):
    ckpt, _ = trained
    data = _data_with(ckpt.parent.parent, "four", "synth.classes", 4)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ckpt} has no proxy for class 3 of {data}\n"


def test_train_with_test_data_of_an_unseen_class_exits_two(tiny, capsys):
    tmp_path, config, data = tiny
    test_data = _data_with(tmp_path, "four", "synth.classes", 4)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--test-data", str(test_data), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: a model trained on {data} has no proxy for class 3 of "
                            f"{test_data}\n")
    assert not out.exists()


def test_train_with_test_data_of_another_feature_dim_exits_two(tiny, capsys):
    tmp_path, config, data = tiny
    test_data = _data_with(tmp_path, "dim6", "synth.dim", 6)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--test-data", str(test_data), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {test_data} has feature dim 6, but a model trained on "
                            f"{data} takes 8\n")
    assert not out.exists()


@pytest.mark.parametrize("formula, args, out", [
    ("topology-count", ["4"], "16"),
    ("turan", ["6", "3"], "12"),
    ("mstar", ["8", "0.5", "1.0"], "4"),          # epsilon 0.5, delta 1.0 would print 6
    ("meta", ["3", "0.25", "0.5"], "20"),         # epsilon 0.25, delta 0.5 would print 64
])
def test_calc_prints_each_formula_and_names_its_arguments(capsys, formula, args, out):
    assert main(["calc", formula, *args]) == 0
    assert capsys.readouterr().out == out + "\n"
    names = {"topology-count": "n", "turan": "n k", "mstar": "n delta epsilon",
             "meta": "eta delta epsilon"}[formula]
    assert main(["calc", formula, *args[:-1]]) == 2
    assert capsys.readouterr().err == \
        f"error: {formula} takes {names}, got {len(args) - 1} arguments\n"
    with pytest.raises(SystemExit):
        main(["calc", "--help"])
    # help text wraps at the terminal width, possibly inside a hyphenated name
    assert (formula + names).replace(" ", "") in "".join(capsys.readouterr().out.split())
    assert main(["calc", "nosuch"]) == 2
    assert f"{formula} {names}" in capsys.readouterr().err


@pytest.mark.parametrize("formula, args, message", [
    ("mstar", ["nan", "0.5", "1"], "n: expected a finite number, got 'nan'"),
    ("mstar", ["8", "0.5", "inf"], "epsilon: expected a finite number, got 'inf'"),
    ("meta", ["inf", "0.5", "1"], "eta: expected a finite number, got 'inf'"),
    ("meta", ["nan", "0.5", "1"], "eta: expected a finite number, got 'nan'"),
    ("mstar", ["8", "1", "1e-320"], "sample complexity overflows to infinity"),
    ("meta", ["3", "1", "1e-200"], "sample complexity overflows to infinity"),
], ids=["mstar_nan_n", "mstar_inf_epsilon", "meta_inf_eta", "meta_nan_eta", "mstar_overflow",
        "meta_overflow"])
def test_calc_non_finite_arguments_exit_two(capsys, formula, args, message):
    assert main(["calc", formula, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_calc_topology_count_up_to_the_printable_limit(capsys):
    assert main(["calc", "topology-count", "239"]) == 0
    out = capsys.readouterr().out
    assert out == f"{2 ** (239 * 239 // 4)}\n" and len(out) == 4299 + 1
    # 2^(2.5e11) for n = 1000000 is never built
    for n in ("240", "1000000"):
        assert main(["calc", "topology-count", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: n must be at most 239; larger counts exceed Python's "
                                "default limit of 4300 digits for printing an integer\n")
