"""Exit codes of the command line: 0 success, 2 usage or config, 3 numeric."""
import numpy as np
import pytest

from relviews import explain as ex
from relviews import synth, training
from relviews.cli import main
from relviews.runconfig import load_config
from relviews.synth import NoiseModel
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
     "tensor cost.W1: could not convert string to float: 'x1'"),
    (_splice("tensor cost.W1 ", ["tensor cost.W1 4,x"]), "tensor cost.W1: bad dims '4,x'"),
    (_splice("tensor cost.b2 ", [], count=2), "missing tensor cost.b2"),
    (_splice("tensor proxy1.nodes ", ["tensor proxy1.nodes 1,2", "0 0"], count=2),
     "tensor proxy1.nodes: shape (1, 2) does not fit hidden_dim 8"),
    (_splice("config encoder.heads=", []), "missing config key 'encoder.heads'"),
    (_splice("config encoder.layers=", ["config encoder.layers=two"]),
     "encoder.layers: expected an integer, got 'two'"),
    (_splice("config train.seed=", ["config train.no_such_key=1"], count=0),
     "unknown config key 'train.no_such_key'"),
    (_splice("config train.seed=", ["config train.seed=6"], offset=1, count=0),
     "duplicate config key 'train.seed'"),
    (_splice("tensor cost.b2 ", ["tensor cost.b2 1", "0"], offset=2, count=0),
     "duplicate tensor cost.b2"),
    (_first_value("tensor cost.W1 ", "nan"), "tensor cost.W1: non-finite value"),
    (_first_value("tensor proxy1.nodes ", "-inf"), "tensor proxy1.nodes: non-finite value"),
    # earlier versions wrote proxy edge tensors: still checked, needing their nodes
    (_splice("tensor proxy1.nodes ", ["tensor proxy1.edges 10,8", " ".join("0" * 80)], count=2),
     "missing tensor proxy1.nodes"),
    (_splice("tensor proxy1.nodes ", ["tensor proxy1.edges 10,2", " ".join("0" * 20)], count=0),
     "tensor proxy1.edges: shape (10, 2) does not fit hidden_dim 8"),
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


def test_data_file_without_records_exits_two(trained, capsys):
    ckpt, data = trained
    empty = data.with_name("empty.txt")
    empty.write_text(data.read_text().splitlines()[0] + "\n")
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: dataset file has no records\n"


def _edit_header(old, new):
    def edit(lines):
        assert old in lines[0]
        return [lines[0].replace(old, new), *lines[1:]]
    return edit


def _last_token_abc(lines):
    return [lines[0], lines[1].rsplit(" ", 1)[0] + " abc", *lines[2:]]


def _mask_token(mask):
    def edit(lines):
        label, _, rest = lines[1].split(" ", 2)
        return [lines[0], f"{label} {mask} {rest}", *lines[2:]]
    return edit


@pytest.mark.parametrize("edit, message", [
    (_last_token_abc, "line 2: could not convert string to float: 'abc'"),
    (_edit_header(" classes=", " junk classes="), "line 1: header token 'junk' is not key=value"),
    (_edit_header("model=outside_global_fraction", "model=nosuch"),
     "line 1: unknown noise model 'nosuch' (one of: uniform_whole_image, "
     "outside_global_fraction, causal_intervention)"),
    (_edit_header(" sigma=", " no_sigma="), "line 1: missing header key 'sigma'"),
    (_mask_token("1x2?"), "line 2: clean mask '1x2?' holds a character other than 0 or 1"),
    (_edit_header(" sigma=0.1 ", " sigma=nan "),
     "line 1: noise_scale must be finite and non-negative"),
], ids=["record_token", "header_token", "model", "missing_key", "mask", "sigma_nan"])
def test_malformed_data_file_exits_two(tiny, capsys, edit, message):
    tmp_path, config, data = tiny
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(edit(data.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--data", str(bad),
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["sweep-noise", "--eta-list", "0.1,abc"],
     "--eta-list: could not convert string to float: 'abc'"),
    (["sweep-noise", "--eta-list", "0.1", "--models", "nosuch"],
     "--models: unknown noise model 'nosuch' (one of: uniform_whole_image, "
     "outside_global_fraction, causal_intervention)"),
    (["sweep-depth", "--depth-list", "2,x"],
     "--depth-list: invalid literal for int() with base 10: 'x'"),
    (["sweep-noise", "--eta-list", ""], "--eta-list: no values given"),
    (["sweep-noise", "--eta-list", "0.5", "--models", " , "], "--models: no values given"),
    (["sweep-depth", "--depth-list", ","], "--depth-list: no values given"),
], ids=["eta_list", "models", "depth_list", "empty_eta_list", "empty_models",
        "empty_depth_list"])
def test_bad_sweep_list_exits_two(tiny, capsys, argv, message):
    tmp_path, config, _ = tiny
    capsys.readouterr()
    assert main([*argv, "--config", str(config), "--out", str(tmp_path / "rows.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "rows.csv").exists()


def test_bad_top_k_list_exits_two(trained, capsys):
    ckpt, data = trained
    out = ckpt.parent / "metrics"
    for raw, message in (("2,x", "invalid literal for int() with base 10: 'x'"),
                         ("", "no values given")):
        assert main(["metrics", "--checkpoint", str(ckpt), "--data", str(data),
                     "--top-k-list", raw, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --top-k-list: {message}\n"
        assert not out.exists()


def test_sweeps_write_the_library_rows(tiny, capsys):
    tmp_path, config, _ = tiny
    run = load_config(config)
    noise, depth = tmp_path / "noise.csv", tmp_path / "depth.csv"
    assert main(["sweep-noise", "--config", str(config), "--eta-list", "0.5",
                 "--models", "causal_intervention", "--out", str(noise)]) == 0
    assert noise.read_text() == training.noise_csv(
        training.sweep_noise(run.train, run.synth, [0.5], [NoiseModel.CAUSAL_INTERVENTION]))
    assert main(["sweep-depth", "--config", str(config), "--depth-list", "1",
                 "--out", str(depth)]) == 0
    assert depth.read_text() == training.depth_csv(
        training.sweep_depth(run.train, run.synth, [1]))
    assert capsys.readouterr().out == (f"wrote 1 rows to {noise}\n"
                                       f"wrote 1 rows to {depth}\n")


def _data_with(tmp_path, name, key, value):
    """Generate a data file from the tiny config with one key's value replaced."""
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in TINY_CONFIG.splitlines()]
    config = tmp_path / f"{name}.cfg"
    config.write_text("\n".join(lines) + "\n")
    data = tmp_path / f"{name}.txt"
    assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
    return data


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
    assert capsys.readouterr().err == f"error: {ckpt} has no proxy for class 3\n"
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
    assert captured.err == "error: the model has no proxy for class 3\n"


def test_train_with_test_data_of_an_unseen_class_exits_two(tiny, capsys):
    tmp_path, config, data = tiny
    test_data = _data_with(tmp_path, "four", "synth.classes", 4)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--test-data", str(test_data), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the model being trained has no proxy for class 3\n"
    assert not (out / "checkpoint.txt").exists()


def test_train_with_test_data_of_another_feature_dim_exits_two(tiny, capsys):
    tmp_path, config, data = tiny
    test_data = _data_with(tmp_path, "dim6", "synth.dim", 6)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--test-data", str(test_data), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: test data feature dim 6 != training data feature dim 8\n"
    assert not (out / "checkpoint.txt").exists()


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
    ("mstar", ["nan", "0.5", "1"], "need finite n > 0, finite epsilon > 0, 0 < delta <= 1"),
    ("mstar", ["8", "0.5", "inf"], "need finite n > 0, finite epsilon > 0, 0 < delta <= 1"),
    ("meta", ["inf", "0.5", "1"], "need finite eta >= 0, finite epsilon > 0, 0 < delta <= 1"),
    ("meta", ["nan", "0.5", "1"], "need finite eta >= 0, finite epsilon > 0, 0 < delta <= 1"),
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
