"""Rejection paths of the run-configuration reader and the one key table."""
import math
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relviews.complementarity import ComplementarityConfig
from relviews.encoder import EncoderConfig
from relviews.errors import ConfigError, format_value, parse_bool, parse_float, parse_int
from relviews.proxies import ProxyAnchorConfig, SinkhornConfig
from relviews.runconfig import load_config, parse_config_text
from relviews.synth import NoiseModel, SynthConfig, parse_noise_model
from relviews.training import CONFIG_KEYS, AblationConfig, TrainConfig, build_configs


@pytest.mark.parametrize("text, message", [
    ("ablate.cg = maybe\n", "ablate.cg: expected a boolean, got 'maybe'"),
    ("train.epochs = 2.5\n", "train.epochs: expected an integer, got '2.5'"),
    ("train.lr = fast\n", "train.lr: expected a number, got 'fast'"),
    ("synth.noise_model = gaussian\n", "synth.noise_model: unknown noise model 'gaussian'"),
    ("sinkhorn.epsilon = nan\n", "sinkhorn.epsilon: expected a finite number, got 'nan'"),
    ("sinkhorn.tol = NaN\n", "sinkhorn.tol: expected a finite number, got 'NaN'"),
    ("train.lr = inf\n", "train.lr: expected a finite number, got 'inf'"),
    ("encoder.leaky_slope = -Infinity\n",
     "encoder.leaky_slope: expected a finite number, got '-Infinity'"),
])
def test_bad_values_name_the_key(text, message):
    with pytest.raises(ConfigError, match="^" + re.escape("run.cfg:1: " + message)):
        parse_config_text(text, source="run.cfg")


@pytest.mark.parametrize("text, message", [
    ("# header\ntrain.epochs 3\n", "run.cfg:2: expected key=value"),
    ("train.epochs = 3\ntrain.no_such_key = 1\n", "run.cfg:2: unknown key 'train.no_such_key'"),
    # switches of earlier versions: every hidden layer updates the edges, every view is normalized
    ("encoder.edge_update = false\n", "run.cfg:1: unknown key 'encoder.edge_update'"),
    ("comp.normalize = true\n", "run.cfg:1: unknown key 'comp.normalize'"),
    ("train.epochs = 3\n\ntrain.epochs = 4\n", "run.cfg:3: duplicate key 'train.epochs'"),
    ("comp.weight_cap = -1\n", "run.cfg: weight_cap must be positive"),
    ("train.proxy_momentum = 1.5\n", "run.cfg: proxy_momentum must lie in [0, 1]"),
    ("train.proxy_momentum = -0.1\n", "run.cfg: proxy_momentum must lie in [0, 1]"),
    ("train.weight_decay = -1\n", "run.cfg: weight_decay must be non-negative"),
    ("train.cost_hidden = 0\n", "run.cfg: cost_head_hidden must be >= 1"),
    ("encoder.hidden_dim = 0\n", "run.cfg: hidden_dim must be >= 1"),
    ("encoder.hidden_dim = -4\n", "run.cfg: hidden_dim must be >= 1"),
    ("encoder.leaky_slope = 1.5\n", "run.cfg: leaky_slope must lie in [0, 1]"),
    ("encoder.leaky_slope = -0.2\n", "run.cfg: leaky_slope must lie in [0, 1]"),
])
def test_bad_lines_and_refused_values_name_the_source(text, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        parse_config_text(text, source="run.cfg")


def test_unreadable_file(tmp_path):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError, match="cannot read config file .*missing.cfg"):
        load_config(missing)
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path)   # a directory


def test_valid_values_reach_the_configs():
    run = parse_config_text("ablate.cg = off\ntrain.epochs = 7\n"
                            "synth.noise_model = outside_global_fraction  # trailing\n")
    assert run.train.ablations.use_complementarity_graph is False
    assert run.train.epochs == 7
    assert run.synth.noise_model.value == "outside_global_fraction"


@pytest.mark.parametrize("part, cls", [
    ("synth", SynthConfig), ("encoder", EncoderConfig), ("sinkhorn", SinkhornConfig),
    ("anchor", ProxyAnchorConfig), ("comp", ComplementarityConfig),
    ("ablations", AblationConfig), ("train", TrainConfig),
])
def test_every_config_field_has_exactly_one_key(part, cls):
    components = ("encoder", "sinkhorn", "anchor", "comp", "ablations")
    names = [f.name for f in fields(cls) if cls is not TrainConfig or f.name not in components]
    keyed = [attr for owner, attr, _ in CONFIG_KEYS.values() if owner == part]
    assert sorted(keyed) == sorted(names)
    assert len(set(keyed)) == len(keyed)


def test_build_configs_applies_values_to_the_given_base_configs():
    base_synth = SynthConfig(num_classes=5)
    base = TrainConfig(batch_size=5, encoder=EncoderConfig(hidden_dim=4))
    synth, cfg = build_configs({"synth.eta": 0.5, "encoder.layers": 1, "train.epochs": 3},
                               base_synth, base)
    assert synth == replace(base_synth, noise_rate=0.5)
    assert cfg == replace(base, epochs=3, encoder=EncoderConfig(hidden_dim=4, num_layers=1))
    assert build_configs({}, base_synth, base) == (base_synth, base)
    with pytest.raises(ConfigError, match="^hidden_dim must be >= 1$"):
        build_configs({"encoder.hidden_dim": 0}, base_synth, base)


# every value each parser can return
_PARSED_VALUES = {parse_int: st.integers(),
                  parse_float: st.floats(allow_nan=False, allow_infinity=False),
                  parse_bool: st.booleans(), parse_noise_model: st.sampled_from(NoiseModel)}


@settings(derandomize=True, database=None)
@given(st.sampled_from(list(CONFIG_KEYS)).flatmap(
    lambda key: st.tuples(st.just(key), _PARSED_VALUES[CONFIG_KEYS[key][2]])))
def test_format_value_reads_back_unchanged_for_every_key(key_value):
    key, value = key_value
    back = CONFIG_KEYS[key][2](format_value(value))
    assert type(back) is type(value) and back == value
    if isinstance(value, float):
        assert math.copysign(1.0, back) == math.copysign(1.0, value)
