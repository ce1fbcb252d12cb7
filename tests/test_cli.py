"""CLI: config handling, subcommands, exit codes, output files."""

import contextlib
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axialrx.channel import VELOCITY_TIERS
from axialrx.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    SCHEMA,
    _write_config_snapshot,
    config_hash,
    link_from_config,
    load_config,
    main,
)
from axialrx.layers import VARIANTS

TINY_CONFIG = """
[link]
subcarriers = 8
snr_db_max = 12

[model]
embedding_dim = 8
heads = 2
blocks = 1

[train]
steps = 2
batch_size = 2

[eval]
snr_points_db = 6
max_blocks = 4
target_errors = 2
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG)
    return str(path)


class TestConfig:
    def test_presets_resolve(self):
        desk = load_config(None, "desk")
        paper = load_config(None, "paper")
        assert desk["link"]["subcarriers"] == 24
        assert paper["link"]["subcarriers"] == 128
        assert paper["link"]["modulation_order"] == 64
        assert desk["model"]["blocks"] == 2
        assert paper["model"]["blocks"] == 6

    def test_desk_training_recipe_pinned(self):
        """The desk preset carries the validated plateau-escape recipe."""
        desk = load_config(None, "desk")
        assert desk["train"]["steps"] == 500
        assert desk["train"]["batch_size"] == 8
        assert desk["train"]["learning_rate"] == 5e-3
        assert desk["train"]["seed"] == 1
        assert desk["model"]["init_seed"] == 2

    def test_file_overrides_preset(self, tiny_config):
        cfg = load_config(tiny_config, "desk")
        assert cfg["link"]["subcarriers"] == 8
        assert cfg["link"]["snr_db_max"] == 12.0
        assert cfg["link"]["ofdm_symbols"] == 14  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[link]\nno_such_knob = 3\n")
        from axialrx.cli import ConfigError

        with pytest.raises(ConfigError, match="no_such_knob"):
            load_config(str(path), "desk")

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nonsense]\nx = 1\n")
        from axialrx.cli import ConfigError

        with pytest.raises(ConfigError, match="nonsense"):
            load_config(str(path), "desk")

    def test_default_section_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[DEFAULT]\nbogus = 1\n")
        from axialrx.cli import ConfigError

        with pytest.raises(ConfigError, match=r"\[DEFAULT\].*bogus"):
            load_config(str(path), "desk")
        assert main(["flops", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--analytic-only"]) == EXIT_CONFIG

    def test_hash_stable_and_sensitive(self, tiny_config):
        a = config_hash(load_config(tiny_config, "desk"))
        b = config_hash(load_config(tiny_config, "desk"))
        c = config_hash(load_config(None, "desk"))
        assert a == b
        assert a != c
        assert len(a) == 12

    @pytest.mark.parametrize("preset, text", [("desk", None), ("paper", None),
                                              ("desk", TINY_CONFIG)], ids=["desk", "paper", "tiny"])
    def test_snapshot_reads_back_to_the_same_hash(self, preset, text, tmp_path):
        """`config_snapshot.ini` alone rebuilds the configuration: read back
        over the other preset, it gives the same config_hash."""
        source = tmp_path / "source.ini"
        if text is not None:
            source.write_text(text)
        config = load_config(str(source) if text is not None else None, preset)
        snapshot = tmp_path / "config_snapshot.ini"
        _write_config_snapshot(snapshot, config, seed=config["train"]["seed"])
        reloaded = load_config(str(snapshot), "paper" if preset == "desk" else "desk")
        assert config_hash(reloaded) == config_hash(config)
        assert reloaded == config

    def test_link_construction(self, tiny_config):
        link = link_from_config(load_config(tiny_config, "desk"))
        assert link.f == 8
        assert link.snr_db == (0.0, 12.0)
        assert link.delay_spread_s == pytest.approx((10e-9, 100e-9))

    def test_env_seed_override(self, tiny_config, monkeypatch):
        from axialrx.cli import apply_seed_overrides

        monkeypatch.setenv("AXRX_SEED", "314")
        cfg = load_config(tiny_config, "desk")
        apply_seed_overrides(cfg, None)
        assert cfg["train"]["seed"] == 314
        assert cfg["eval"]["seed"] == 314
        apply_seed_overrides(cfg, 42)  # explicit flag wins
        assert cfg["train"]["seed"] == 42


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_config_value_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nvariant = quantum\n")
        rc = main(["flops", "--config", str(path), "--out", str(tmp_path / "o"),
                   "--analytic-only"])
        assert rc == EXIT_CONFIG

    def test_bad_code_rate_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[link]\ncode_rate = 0.75\n")
        rc = main(["flops", "--config", str(path), "--out", str(tmp_path / "o"),
                   "--analytic-only"])
        assert rc == EXIT_CONFIG

    def test_zero_heads_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nheads = 0\n")
        rc = main(["flops", "--config", str(path), "--out", str(tmp_path / "o"),
                   "--analytic-only"])
        assert rc == EXIT_CONFIG
        assert "heads" in capsys.readouterr().err

    def test_lone_percent_is_config_error(self, tmp_path, capsys):
        """A `%` reaches the value parsers instead of configparser interpolation."""
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nvariant = 50%\n")
        out = tmp_path / "o"
        rc = main(["flops", "--config", str(path), "--out", str(out), "--analytic-only"])
        assert rc == EXIT_CONFIG
        assert "variant" in capsys.readouterr().err
        assert not (out / "flops_report.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["flops", "--analytic-only"],
        ["selftest"],
    ], ids=["train", "flops", "selftest"])
    def test_threads_flag_only_on_eval(self, argv, tiny_config, tmp_path):
        rc = main(argv + ["--config", tiny_config, "--out", str(tmp_path / "o"),
                          "--threads", "2"])
        assert rc == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    def test_zero_threads_is_usage_error(self, tiny_config, tmp_path):
        rc = main(["eval", "--config", tiny_config, "--out", str(tmp_path / "o"),
                   "--threads", "0"])
        assert rc == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    def test_corrupt_checkpoint_is_runtime_error(self, tiny_config, tmp_path, capsys):
        bad = tmp_path / "bad.axrx"
        bad.write_bytes(b"garbage")
        rc = main(["eval", "--config", tiny_config, "--out", str(tmp_path / "o"), str(bad)])
        assert rc == EXIT_RUNTIME
        assert "bad.axrx" in capsys.readouterr().err


class TestConfigValidation:
    """Bad values exit 2 naming the key, before any expensive work or output."""

    @pytest.mark.parametrize("old, new, key", [
        ("steps = 2", "steps = -1", "steps"),
        ("batch_size = 2", "batch_size = 0", "batch_size"),
        ("batch_size = 2", "batch_size = 2\nlearning_rate = nan", "learning_rate"),
        ("batch_size = 2", "batch_size = 2\nlearning_rate = inf", "learning_rate"),
        ("batch_size = 2", "batch_size = 2\nlearning_rate = 0", "learning_rate"),
        ("batch_size = 2", "batch_size = 2\nlearning_rate = -1e-3", "learning_rate"),
        ("embedding_dim = 8", "embedding_dim = 0", "embedding_dim"),
        ("blocks = 1", "blocks = -1", "blocks"),
        ("embedding_dim = 8", "embedding_dim = 8\nkernel = -1", "kernel"),
        ("embedding_dim = 8", "embedding_dim = 8\nffn_hidden = -4", "ffn_hidden"),
        ("embedding_dim = 8", "embedding_dim = 8\nresnet_channels = 0", "resnet_channels"),
        ("batch_size = 2", "batch_size = 2\nseed = -1", "[train] seed"),
        ("blocks = 1", "blocks = 1\ninit_seed = -1", "[model] init_seed"),
        ("heads = 2", "heads = 3", "[model] embedding_dim 8 is not divisible by heads 3"),
        ("embedding_dim = 8", "embedding_dim = 8\nkernel = 2", "[model] kernel"),
    ], ids=["negative-steps", "zero-batch", "nan-lr", "inf-lr", "zero-lr", "negative-lr",
            "zero-embedding", "negative-blocks", "negative-kernel", "negative-ffn",
            "zero-resnet-channels", "negative-seed", "negative-init-seed", "heads-not-divisor",
            "even-kernel"])
    def test_bad_train_or_model_value(self, old, new, key, tmp_path, capsys, monkeypatch):
        import axialrx.cli as cli

        built = []
        monkeypatch.setattr(cli, "_build_simulator", lambda config: built.append(config))
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace(old, new))
        out = tmp_path / "o"
        rc = main(["train", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not built and not out.exists()

    @pytest.mark.parametrize("command", [["train"], ["eval"], ["flops", "--analytic-only"]],
                             ids=["train", "eval", "flops"])
    @pytest.mark.parametrize("old, new, key", [
        ("subcarriers = 8", "subcarriers = 0", "subcarriers"),
        ("snr_db_max = 12", "snr_db_max = 12\nmodulation_order = 8", "modulation_order"),
        ("snr_db_max = 12", "snr_db_max = 12\npilot_symbols = 2,20", "pilot_symbols"),
        ("snr_db_max = 12", "snr_db_max = 12\nsnr_db_min = nan", "snr_db_min"),
        ("snr_db_max = 12", "snr_db_max = 12\npilot_seed = -1", "[link] pilot_seed"),
    ], ids=["zero-subcarriers", "order-8", "pilot-out-of-range", "nan-snr", "negative-pilot-seed"])
    def test_bad_link_value(self, command, old, new, key, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace(old, new))
        out = tmp_path / "o"
        rc = main(command + ["--config", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, key", [
        ("target_errors = 2", "target_errors = 2\nseed = -1", "[eval] seed"),
        ("snr_points_db = 6", "snr_points_db = 6, nan", "snr_points_db"),
        ("snr_points_db = 6", "snr_points_db = inf", "snr_points_db"),
        ("snr_points_db = 6", "snr_points_db = -inf, 6", "snr_points_db"),
    ], ids=["negative-seed", "nan-snr-point", "inf-snr-point", "minus-inf-snr-point"])
    def test_bad_eval_value(self, old, new, key, tmp_path, capsys, monkeypatch):
        import axialrx.cli as cli

        built = []
        monkeypatch.setattr(cli, "_build_simulator", lambda config: built.append(config))
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace(old, new))
        out = tmp_path / "o"
        rc = main(["eval", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not built and not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("env, argv, code, key", [
        ("-1", [], EXIT_CONFIG, "AXRX_SEED"),
        (None, ["--seed", "-1"], EXIT_USAGE, "--seed"),
    ], ids=["env-seed", "cli-seed"])
    def test_negative_seed_override(self, command, env, argv, code, key, tiny_config,
                                    tmp_path, capsys, monkeypatch):
        import axialrx.cli as cli

        built = []
        monkeypatch.setattr(cli, "_build_simulator", lambda config: built.append(config))
        if env is None:
            monkeypatch.delenv("AXRX_SEED", raising=False)
        else:
            monkeypatch.setenv("AXRX_SEED", env)
        out = tmp_path / "o"
        rc = main([command, "--config", tiny_config, "--out", str(out)] + argv)
        assert rc == code
        assert key in capsys.readouterr().err
        assert not built and not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("link", "ofdm_symbols", 0),
        ("link", "rx_antennas", 0),
        ("link", "pilot_symbols", ()),
        ("link", "pilot_symbols", (2, 2)),
        ("link", "pilot_symbols", tuple(range(14))),
        ("link", "subcarrier_spacing_hz", 0.0),
        ("link", "carrier_frequency_hz", float("inf")),
        ("link", "snr_db_min", 13.0),
        ("link", "velocity_min_mps", -1.0),
        ("link", "delay_spread_max_ns", float("nan")),
        ("channel", "taps", 0),
        ("channel", "sinusoids", 0),
        ("link", "pilot_symbols", (11, 2)),
    ])
    def test_link_from_config_names_the_key(self, section, key, value, tiny_config):
        from axialrx.cli import ConfigError

        config = load_config(tiny_config, "desk")
        config[section][key] = value
        with pytest.raises(ConfigError, match=key):
            link_from_config(config)


FINITE = {"allow_nan": False, "allow_infinity": False}
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NAME = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=8)


def below(x):
    return st.floats(max_value=x, **FINITE).filter(lambda v: v < x)


def above(x):
    return st.floats(min_value=x, **FINITE).filter(lambda v: v > x)


# Values every schema key must reject on the desk preset (snr_db 0..15,
# velocity 0..50 m/s, delay spread 10..100 ns, 14 OFDM symbols).
OUT_OF_RANGE = {
    ("link", "ofdm_symbols"): st.integers(max_value=0),
    ("link", "subcarriers"): st.integers(max_value=0),
    ("link", "rx_antennas"): st.integers(max_value=0),
    ("link", "subcarrier_spacing_hz"): st.floats(max_value=0.0) | NON_FINITE,
    ("link", "carrier_frequency_hz"): st.floats(max_value=0.0) | NON_FINITE,
    ("link", "modulation_order"): st.integers().filter(lambda m: m not in (4, 16, 64)),
    ("link", "code_rate"): st.floats(**FINITE).filter(lambda r: abs(r - 0.5) > 1e-6)
    | NON_FINITE,
    ("link", "pilot_symbols"): st.lists(st.integers(-5, 30), max_size=6).filter(
        lambda p: not (p and p == sorted(set(p)) and 0 <= p[0] and p[-1] < 14)),
    ("link", "pilot_seed"): st.integers(max_value=-1),
    ("link", "snr_db_min"): above(15.0) | NON_FINITE,
    ("link", "snr_db_max"): below(0.0) | NON_FINITE,
    ("link", "velocity_min_mps"): below(0.0) | above(50.0) | NON_FINITE,
    ("link", "velocity_max_mps"): below(0.0) | NON_FINITE,
    ("link", "delay_spread_min_ns"): below(0.0) | above(100.0) | NON_FINITE,
    ("link", "delay_spread_max_ns"): below(10.0) | NON_FINITE,
    ("channel", "taps"): st.integers(max_value=0),
    ("channel", "sinusoids"): st.integers(max_value=0),
    ("model", "variant"): NAME.filter(lambda v: v not in VARIANTS),
    ("model", "embedding_dim"): st.integers(max_value=0),
    ("model", "heads"): st.integers(max_value=0),
    ("model", "blocks"): st.integers(max_value=-1),
    ("model", "ffn_hidden"): st.integers(max_value=-1),
    ("model", "kernel"): st.integers(max_value=0) | st.integers(1, 10**6).map(lambda k: 2 * k),
    ("model", "resnet_units"): st.integers(max_value=-1),
    ("model", "resnet_channels"): st.integers(max_value=0),
    ("model", "init_seed"): st.integers(max_value=-1),
    ("train", "steps"): st.integers(max_value=-1),
    ("train", "batch_size"): st.integers(max_value=0),
    ("train", "learning_rate"): st.floats(max_value=0.0) | NON_FINITE,
    ("train", "seed"): st.integers(max_value=-1),
    ("train", "checkpoint_every"): st.integers(max_value=-1),
    ("eval", "snr_points_db"): st.lists(st.floats(), max_size=4).filter(
        lambda v: not (v and all(map(math.isfinite, v)))),
    ("eval", "tiers"): st.lists(NAME, max_size=3).filter(
        lambda v: not (v and set(v) <= set(VELOCITY_TIERS))),
    ("eval", "max_blocks"): st.integers(max_value=0),
    ("eval", "target_errors"): st.integers(max_value=0),
    ("eval", "seed"): st.integers(max_value=-1),
}
BAD_VALUES = st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
    lambda key: OUT_OF_RANGE[key].map(lambda value: (*key, value)))


def ini_text(value) -> str:
    if isinstance(value, list):
        return ", ".join(ini_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


class TestConfigProperty:
    """Every schema key rejects an out-of-range value with exit 2 and a
    message naming its section and key, before any simulator is built."""

    def test_every_schema_key_has_out_of_range_values(self):
        assert set(OUT_OF_RANGE) == {(section, key) for section, keys in SCHEMA.items()
                                     for key in keys}

    @settings(max_examples=300, deadline=None)
    @example(case=("link", "code_rate", math.nan))
    @given(case=BAD_VALUES)
    def test_out_of_range_value_exits_2_naming_the_key(self, case):
        section, key, value = case
        command = "eval" if section == "eval" else "train"
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), \
                mock.patch("axialrx.cli._build_simulator", side_effect=AssertionError), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            os.environ.pop("AXRX_SEED", None)
            path = os.path.join(tmp, "bad.ini")
            with open(path, "w") as fh:
                fh.write(f"[{section}]\n{key} = {ini_text(value)}\n")
            rc = main([command, "--config", path, "--out", os.path.join(tmp, "o")])
        assert rc == EXIT_CONFIG, err.getvalue()
        assert f"[{section}]" in err.getvalue() and key in err.getvalue(), err.getvalue()


class TestTrainCommand:
    def test_creates_three_outputs_and_is_reproducible(self, tiny_config, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["train", "--config", tiny_config, "--out", str(out1),
                     "--seed", "5"]) == EXIT_OK
        assert main(["train", "--config", tiny_config, "--out", str(out2),
                     "--seed", "5"]) == EXIT_OK
        for out in (out1, out2):
            assert (out / "checkpoint.axrx").exists()
            assert (out / "loss_trace.csv").exists()
            assert (out / "config_snapshot.ini").exists()
        assert (out1 / "checkpoint.axrx").read_bytes() == (out2 / "checkpoint.axrx").read_bytes()
        assert (out1 / "loss_trace.csv").read_text() == (out2 / "loss_trace.csv").read_text()

    def test_outputs_carry_header_line(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", tiny_config, "--out", str(out), "--seed", "5"])
        for name in ("loss_trace.csv", "config_snapshot.ini"):
            first = (out / name).read_text().splitlines()[0]
            assert first.startswith("# config_hash=")
            assert "seed=5" in first and "version=" in first

    def test_failed_run_leaves_the_snapshot(self, tiny_config, tmp_path, monkeypatch, capsys):
        assert main(["train", "--config", tiny_config, "--out", str(tmp_path / "ok"),
                     "--seed", "5"]) == EXIT_OK

        def failing_train(*args, **kwargs):
            raise RuntimeError("training blew up")

        monkeypatch.setattr("axialrx.trainer.train", failing_train)
        out = tmp_path / "failed"
        assert main(["train", "--config", tiny_config, "--out", str(out),
                     "--seed", "5"]) == EXIT_RUNTIME
        assert "training blew up" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["config_snapshot.ini"]
        assert (out / "config_snapshot.ini").read_bytes() == \
            (tmp_path / "ok" / "config_snapshot.ini").read_bytes()

    def test_loss_trace_schema(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", tiny_config, "--out", str(out), "--seed", "5"])
        lines = (out / "loss_trace.csv").read_text().splitlines()
        assert lines[1] == "step,loss,snr_db,velocity"
        assert len(lines) == 2 + 2  # header comment + columns + 2 steps

    def test_checkpoint_cadence(self, tmp_path):
        config = tmp_path / "cadence.ini"
        config.write_text(TINY_CONFIG.replace("steps = 2", "steps = 2\ncheckpoint_every = 1"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--seed", "5"]) == EXIT_OK
        assert (out / "checkpoint_step000001.axrx").exists()
        assert (out / "checkpoint_step000002.axrx").exists()
        # the final cadence snapshot equals the final checkpoint
        assert (out / "checkpoint_step000002.axrx").read_bytes() == \
            (out / "checkpoint.axrx").read_bytes()


class TestEvalCommand:
    def test_baselines_only_row_count(self, tiny_config, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
        lines = (out / "eval_results.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=") and "version=" in lines[0]
        assert lines[1] == "receiver,snr_db,velocity_tier,blocks,errors,bler,halfwidth"
        # 2 baseline receivers x 1 SNR point x 1 tier
        assert len(lines) == 2 + 2

    def test_checkpoint_receiver_included(self, tiny_config, tmp_path):
        train_out = tmp_path / "t"
        main(["train", "--config", tiny_config, "--out", str(train_out), "--seed", "5"])
        out = tmp_path / "eval"
        rc = main(["eval", "--config", tiny_config, "--out", str(out),
                   str(train_out / "checkpoint.axrx")])
        assert rc == EXIT_OK
        text = (out / "eval_results.csv").read_text()
        assert "checkpoint" in text  # receiver named after the file stem
        assert "ls-lmmse" in text and "perfect-csi" in text

    def test_thread_flag_keeps_results_identical(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        main(["eval", "--config", tiny_config, "--out", str(out1), "--seed", "9"])
        main(["eval", "--config", tiny_config, "--out", str(out2), "--seed", "9",
              "--threads", "4"])
        assert (out1 / "eval_results.csv").read_text() == (out2 / "eval_results.csv").read_text()

    def test_mismatched_checkpoint_is_config_error(self, tiny_config, tmp_path):
        from axialrx.autodiff import Tensor
        from axialrx.checkpoint import save

        stray = tmp_path / "stray.axrx"
        save({"pos": Tensor(np.zeros((2, 2, 2)))}, str(stray))
        rc = main(["eval", "--config", tiny_config, "--out", str(tmp_path / "o"), str(stray)])
        assert rc == EXIT_CONFIG


    def test_checkpoint_named_like_a_baseline_is_usage_error(self, tiny_config, tmp_path,
                                                              capsys):
        """A checkpoint named ls-lmmse.axrx would replace the LS-LMMSE row."""
        train_out = tmp_path / "t"
        main(["train", "--config", tiny_config, "--out", str(train_out)])
        clash = tmp_path / "ls-lmmse.axrx"
        clash.write_bytes((train_out / "checkpoint.axrx").read_bytes())
        out = tmp_path / "o"
        rc = main(["eval", "--config", tiny_config, "--out", str(out), str(clash)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(clash) in err and "'ls-lmmse'" in err and "baseline" in err
        assert not out.exists()

    def test_checkpoints_sharing_a_stem_are_usage_error(self, tiny_config, tmp_path, capsys):
        """Two `train --out` directories each hold a checkpoint.axrx."""
        first, second = tmp_path / "a" / "checkpoint.axrx", tmp_path / "b" / "checkpoint.axrx"
        main(["train", "--config", tiny_config, "--out", str(first.parent)])
        second.parent.mkdir()
        second.write_bytes(first.read_bytes())
        out = tmp_path / "o"
        rc = main(["eval", "--config", tiny_config, "--out", str(out), str(first), str(second)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(first) in err and str(second) in err and "'checkpoint'" in err
        assert not out.exists()

    def test_zero_block_budget_is_config_error(self, tmp_path, capsys):
        """max_blocks = 0 would report bler=0 from 0 measured blocks."""
        path = tmp_path / "zero.ini"
        path.write_text(TINY_CONFIG.replace("max_blocks = 4", "max_blocks = 0"))
        out = tmp_path / "o"
        rc = main(["eval", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "max_blocks" in capsys.readouterr().err
        assert not (out / "eval_results.csv").exists()

    @pytest.mark.parametrize("old, new, key", [
        ("target_errors = 2", "target_errors = 0", "target_errors"),
        ("snr_points_db = 6", "snr_points_db = ,", "snr_points_db"),
        ("snr_points_db = 6", "snr_points_db = 6\ntiers = ,", "tiers"),
        ("snr_points_db = 6", "snr_points_db = 6%", "snr_points_db"),
    ], ids=["zero-target", "empty-snr", "empty-tiers", "lone-percent"])
    def test_unmeasured_sweep_is_config_error(self, old, new, key, tmp_path, capsys):
        """A sweep that would measure nothing, or a stray `%`, exits 2 naming the key."""
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace(old, new))
        out = tmp_path / "o"
        rc = main(["eval", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (out / "eval_results.csv").exists()

    def test_bad_variant_without_checkpoints_is_config_error(self, tmp_path, capsys):
        """The [model] section is checked even when no checkpoint uses it."""
        path = tmp_path / "variant.ini"
        path.write_text(TINY_CONFIG.replace("blocks = 1", "blocks = 1\nvariant = quantum"))
        out = tmp_path / "o"
        rc = main(["eval", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "variant" in capsys.readouterr().err
        assert not (out / "eval_results.csv").exists()

    def test_unknown_tier_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "tier.ini"
        path.write_text(TINY_CONFIG + "tiers = tdl-lo, tdl-xx\n")
        out = tmp_path / "o"
        rc = main(["eval", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "tiers" in err and "'tdl-xx'" in err and "tdl-hi" in err
        assert not (out / "eval_results.csv").exists()


class TestFlopsCommand:
    def test_desk_preset_prints_reduction_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "flops"
        rc = main(["flops", "--preset", "desk", "--out", str(out), "--analytic-only"])
        assert rc == EXIT_OK
        captured = capsys.readouterr().out
        assert "8.84" in captured
        text = (out / "flops_report.csv").read_text()
        assert text.splitlines()[0].startswith("# config_hash=")
        assert "reduction_factor" in text
        for variant in ("axial", "global", "cnn-resnet"):
            assert variant in text

    def test_paper_preset_reduction_is_12_62(self, tmp_path, capsys):
        rc = main(["flops", "--preset", "paper", "--out", str(tmp_path / "o"),
                   "--analytic-only"])
        assert rc == EXIT_OK
        assert "12.62" in capsys.readouterr().out

    def test_counted_column_present_when_instrumented(self, tmp_path, tiny_config):
        out = tmp_path / "flops"
        rc = main(["flops", "--config", tiny_config, "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "flops_report.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        counted_idx = header.index("counted_flops")
        layer_idx = header.index("layer")
        analytic_idx = header.index("analytic_flops")
        for row in rows:
            if row[layer_idx] in ("input_conv", "output_conv", "total"):
                assert row[counted_idx] == row[analytic_idx]


class TestSelftestCommand:
    def test_clean_build_passes_within_budget(self, capsys):
        import time

        start = time.monotonic()
        assert main(["selftest"]) == EXIT_OK
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert elapsed < 300.0

    def test_broken_softmax_detected(self, monkeypatch, capsys):
        import axialrx.autodiff as ad

        original = ad.softmax

        def broken(x, axis):
            out = original(x, axis)
            out.data = out.data * 1.05  # rows no longer sum to one
            return out

        monkeypatch.setattr("axialrx.autodiff.softmax", broken)
        assert main(["selftest"]) == EXIT_RUNTIME
        assert "FAIL" in capsys.readouterr().out

    def test_unmasked_feed_forward_backward_detected(self, monkeypatch, capsys):
        """A feed-forward whose backward drops the ReLU mask fails selftest."""
        import axialrx.layers as layers_mod
        from axialrx.autodiff import Tensor, _record

        def unmasked(x, w):
            flat = x.data.reshape(-1, x.shape[-1])
            h = np.maximum(flat @ w.w1.data + w.b1.data, 0.0)
            out = Tensor((h @ w.w2.data + w.b2.data).reshape(x.shape))

            def grad_fn(g):
                g2 = g.reshape(flat.shape)
                gh = g2 @ w.w2.data.T
                return ((gh @ w.w1.data.T).reshape(x.shape), flat.T @ gh, gh.sum(axis=0),
                        h.T @ g2, g2.sum(axis=0))

            return _record(out, (x, w.w1, w.b1, w.w2, w.b2), grad_fn)

        monkeypatch.setattr(layers_mod, "feed_forward", unmasked)
        assert main(["selftest"]) == EXIT_RUNTIME
        out = capsys.readouterr().out
        assert "[FAIL] feed-forward gradient" in out
