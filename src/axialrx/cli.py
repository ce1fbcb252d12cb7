"""Command-line entry point: train, eval, flops, selftest.

Configuration is an INI file with [link], [channel], [model], [train], and
[eval] sections layered over a preset ("desk" runs in minutes on one CPU
core, "paper" mirrors the published link dimensions). Unknown sections or
keys are rejected. `main` checks the whole file once, through `validated`,
before any command runs: a malformed file or an unusable value in any
section exits 2 naming the key, whatever the command, before `--out` is
created or the LDPC code is built. Every text output starts with a comment
line carrying the resolved config hash, the master seed, and the artifact
version, and all results are CSV for external plotting.

Exit codes: 0 success, 1 usage, 2 configuration, 3 runtime failure.
AXRX_SEED in the environment overrides the config seeds; --seed overrides
both.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .layers import Receiver, ReceiverConfig
from .phy import LinkConfig
from .trainer import EvalConfig, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


def _list_of(item):
    """Parser of a comma-separated list of `item` values; blank entries are skipped."""
    return lambda text: tuple(item(part.strip()) for part in text.split(",") if part.strip())


# section -> key -> (parser, desk default, paper default)
SCHEMA: dict[str, dict[str, tuple]] = {
    "link": {
        "ofdm_symbols": (int, 14, 14),
        "subcarriers": (int, 24, 128),
        "rx_antennas": (int, 1, 2),
        "subcarrier_spacing_hz": (float, 30e3, 30e3),
        "carrier_frequency_hz": (float, 3.5e9, 3.5e9),
        "modulation_order": (int, 4, 64),
        "code_rate": (float, 0.5, 0.5),
        "pilot_symbols": (_list_of(int), (2, 11), (2, 11)),
        "pilot_seed": (int, 7, 7),
        "snr_db_min": (float, 0.0, 0.0),
        "snr_db_max": (float, 15.0, 15.0),
        "velocity_min_mps": (float, 0.0, 0.0),
        "velocity_max_mps": (float, 50.0, 50.0),
        "delay_spread_min_ns": (float, 10.0, 10.0),
        "delay_spread_max_ns": (float, 100.0, 100.0),
    },
    "channel": {
        "taps": (int, 8, 8),
        "sinusoids": (int, 32, 32),
    },
    "model": {
        "variant": (str, "axial", "axial"),
        "embedding_dim": (int, 32, 128),
        "heads": (int, 4, 4),
        "blocks": (int, 2, 6),
        "ffn_hidden": (int, 0, 0),  # 0 = 2 * embedding_dim
        "kernel": (int, 3, 3),
        "resnet_units": (int, 10, 10),
        "resnet_channels": (int, 160, 160),
        "init_seed": (int, 2, 2),
    },
    "train": {
        "steps": (int, 500, 1000),
        "batch_size": (int, 8, 8),
        "learning_rate": (float, 5e-3, 5e-3),
        "seed": (int, 1, 1),
        "checkpoint_every": (int, 0, 0),
    },
    "eval": {
        "snr_points_db": (_list_of(float), (0.0, 3.0, 6.0, 9.0, 12.0),
                          (0.0, 3.0, 6.0, 9.0, 12.0)),
        "tiers": (_list_of(str), ("tdl-lo",), ("tdl-lo", "tdl-mid", "tdl-hi")),
        "max_blocks": (int, 200, 200),
        "target_errors": (int, 100, 100),
        "seed": (int, 0, 0),
    },
}

PRESETS = ("desk", "paper")


def load_config(path: str | None, preset: str) -> dict[str, dict]:
    """Preset defaults overlaid with the INI file; unknown keys rejected."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    column = 1 if preset == "desk" else 2
    resolved = {section: {key: spec[column] for key, spec in keys.items()}
                for section, keys in SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path, encoding="utf-8")
        except configparser.Error as err:  # its message names the line and the key or section
            raise ConfigError(str(err))
        except UnicodeDecodeError as err:
            raise ConfigError(f"config file {path} is not UTF-8 text: {err}")
        if not read:
            raise UsageError(f"config file not found: {path}")
        if parser.defaults():
            raise ConfigError(f"keys in [DEFAULT] are not supported, put them in their "
                              f"own section: {', '.join(parser.defaults())}")
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                parse = SCHEMA[section][key][0]
                try:
                    resolved[section][key] = parse(raw)
                except ValueError as err:
                    raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({err})")
    return resolved


def apply_seed_overrides(config: dict[str, dict], cli_seed: int | None) -> None:
    env_seed = os.environ.get("AXRX_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
            if seed < 0:
                raise ValueError
        except ValueError:
            raise ConfigError(f"AXRX_SEED must be a non-negative integer, got {env_seed!r}")
        config["train"]["seed"] = seed
        config["eval"]["seed"] = seed
    if cli_seed is not None:
        config["train"]["seed"] = cli_seed
        config["eval"]["seed"] = cli_seed


def config_hash(config: dict[str, dict]) -> str:
    lines = sorted(f"{section}.{key}={value!r}"
                   for section, keys in config.items() for key, value in keys.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _check_link(config: dict[str, dict]) -> None:
    """Raise ConfigError naming the first [link] or [channel] key with an unusable value."""
    for key in ("taps", "sinusoids"):
        if config["channel"][key] < 1:
            raise ConfigError(f"[channel] {key} must be >= 1, got {config['channel'][key]}")
    link = config["link"]
    if not abs(link["code_rate"] - 0.5) <= 1e-9:  # NaN fails this test
        raise ConfigError(f"[link] code_rate must be 0.5, got {link['code_rate']}")
    for key in ("ofdm_symbols", "subcarriers", "rx_antennas"):
        if link[key] < 1:
            raise ConfigError(f"[link] {key} must be >= 1, got {link[key]}")
    if link["modulation_order"] not in (4, 16, 64):
        raise ConfigError(f"[link] modulation_order must be 4, 16 or 64, "
                          f"got {link['modulation_order']}")
    pilots, t = link["pilot_symbols"], link["ofdm_symbols"]
    if not pilots:
        raise ConfigError("[link] pilot_symbols must list at least one symbol index "
                          "(the LS-LMMSE reference estimates the channel from them)")
    for index in pilots:
        if not 0 <= index < t:
            raise ConfigError(f"[link] pilot_symbols: index {index} outside "
                              f"[0, {t}) for ofdm_symbols = {t}")
    if list(pilots) != sorted(set(pilots)) or len(pilots) >= t:
        raise ConfigError(f"[link] pilot_symbols {','.join(map(str, pilots))} must be "
                          f"increasing and leave a data symbol among {t}")
    if link["pilot_seed"] < 0:
        raise ConfigError(f"[link] pilot_seed must be >= 0, got {link['pilot_seed']}")
    ranges = (("snr_db_min", "snr_db_max"), ("velocity_min_mps", "velocity_max_mps"),
              ("delay_spread_min_ns", "delay_spread_max_ns"))
    for key in ("subcarrier_spacing_hz", "carrier_frequency_hz", *sum(ranges, ())):
        if not math.isfinite(link[key]):
            raise ConfigError(f"[link] {key} must be finite, got {link[key]}")
    for key in ("subcarrier_spacing_hz", "carrier_frequency_hz"):
        if link[key] <= 0.0:
            raise ConfigError(f"[link] {key} must be > 0, got {link[key]}")
    for key in ("velocity_min_mps", "delay_spread_min_ns"):
        if link[key] < 0.0:
            raise ConfigError(f"[link] {key} must be >= 0, got {link[key]}")
    for low, high in ranges:
        if link[low] > link[high]:
            raise ConfigError(f"[link] {low} = {link[low]} exceeds {high} = {link[high]}")


def link_from_config(config: dict[str, dict]) -> LinkConfig:
    _check_link(config)
    link = config["link"]
    return LinkConfig(
        t=link["ofdm_symbols"],
        f=link["subcarriers"],
        n_rx=link["rx_antennas"],
        subcarrier_spacing_hz=link["subcarrier_spacing_hz"],
        carrier_hz=link["carrier_frequency_hz"],
        order=link["modulation_order"],
        snr_db=(link["snr_db_min"], link["snr_db_max"]),
        velocity_mps=(link["velocity_min_mps"], link["velocity_max_mps"]),
        delay_spread_s=(link["delay_spread_min_ns"] * 1e-9,
                        link["delay_spread_max_ns"] * 1e-9),
        pilot_symbols=tuple(link["pilot_symbols"]),
        pilot_seed=link["pilot_seed"],
    )


def receiver_config_from(config: dict[str, dict], variant: str | None = None):
    link = link_from_config(config)
    model = config["model"]
    if model["init_seed"] < 0:
        raise ConfigError(f"[model] init_seed must be >= 0, got {model['init_seed']}")
    return _build(
        "model", ReceiverConfig,
        variant=variant if variant is not None else model["variant"],
        t=link.t,
        f=link.f,
        n_rx=link.n_rx,
        d=model["embedding_dim"],
        heads=model["heads"],
        n_blocks=model["blocks"],
        ffn_hidden=model["ffn_hidden"] or None,
        kernel=model["kernel"],
        bits_per_symbol=link.bits_per_symbol,
        resnet_units=model["resnet_units"],
        resnet_channels=model["resnet_channels"],
    )


def _build(section: str, make, **fields):
    """`make(**fields)`, its ValueError reported as a ConfigError under [section]."""
    try:
        return make(**fields)
    except ValueError as err:
        raise ConfigError(f"[{section}] {err}")


class Run(NamedTuple):
    """The run objects that the config sections configure."""
    link: LinkConfig
    model: ReceiverConfig
    train: TrainConfig
    eval: EvalConfig


def validated(config: dict[str, dict]) -> Run:
    """Check every section, whatever the command; raise one ConfigError
    naming the section and key of the first unusable value."""
    model = receiver_config_from(config)  # checks [link] and [channel] first
    return Run(link=link_from_config(config), model=model,
               train=_build("train", TrainConfig, **config["train"]),
               eval=_build("eval", EvalConfig, **config["eval"]))


def _header_line(config: dict[str, dict], seed: int) -> str:
    return f"# config_hash={config_hash(config)} seed={seed} version={__version__}"


def _write_csv(path: Path, config: dict[str, dict], seed: int,
               columns: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_header_line(config, seed) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_config_snapshot(path: Path, config: dict[str, dict], seed: int) -> None:
    with open(path, "w") as fh:
        fh.write(_header_line(config, seed) + "\n")
        for section, keys in config.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                if isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def _build_simulator(config: dict[str, dict]):
    from .trainer import LinkSimulator

    return LinkSimulator(link_from_config(config),
                         n_taps=config["channel"]["taps"],
                         n_sinusoids=config["channel"]["sinusoids"])


def cmd_train(args, config: dict[str, dict], run: Run) -> int:
    from .checkpoint import save
    from .trainer import train

    seed = run.train.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # written first, so a failed or killed run leaves it for post-mortems
    _write_config_snapshot(out / "config_snapshot.ini", config, seed)
    sim = _build_simulator(config)
    model = Receiver(run.model, seed=config["model"]["init_seed"])

    def checkpoint_fn(step: int, m) -> None:
        save(m.named_parameters(), str(out / f"checkpoint_step{step:06d}.axrx"))

    result = train(model, sim, run.train, log_fn=print, checkpoint_fn=checkpoint_fn)
    save(model.named_parameters(), str(out / "checkpoint.axrx"))
    _write_csv(out / "loss_trace.csv", config, seed,
               ["step", "loss", "snr_db", "velocity"],
               [(step, f"{loss:.10g}", f"{snr:.6g}", f"{vel:.6g}")
                for step, loss, snr, vel in result.trace])
    print(f"wrote {out / 'checkpoint.axrx'}, loss_trace.csv, config_snapshot.ini")
    return EXIT_OK


def cmd_eval(args, config: dict[str, dict], run: Run) -> int:
    from .checkpoint import load
    from .trainer import evaluate, lmmse_receiver, neural_receiver, perfect_csi_receiver

    receivers = {
        "ls-lmmse": lmmse_receiver(run.link),
        "perfect-csi": perfect_csi_receiver(run.link),
    }
    paths: dict[str, str] = {}  # receiver name (the checkpoint's file stem) -> checkpoint
    for path in args.checkpoints:
        name = Path(path).stem
        if name in receivers:
            raise UsageError(f"checkpoint {path} would be named {name!r}, the name of the "
                             f"{name} baseline; rename the file")
        if name in paths:
            raise UsageError(f"checkpoints {paths[name]} and {path} would both be named "
                             f"{name!r}; rename one of them")
        paths[name] = path
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sim = _build_simulator(config)
    for name, path in paths.items():
        state = load(path)  # CheckpointError names the file
        model = Receiver(run.model, seed=config["model"]["init_seed"])
        try:
            model.load_state(state)
        except ValueError as err:
            raise ConfigError(f"checkpoint {path} does not match the configured model: {err}")
        receivers[name] = neural_receiver(model)
    points = evaluate(receivers, sim, run.eval)
    _write_csv(out / "eval_results.csv", config, run.eval.seed,
               ["receiver", "snr_db", "velocity_tier", "blocks", "errors", "bler", "halfwidth"],
               [(p.receiver, f"{p.snr_db:.6g}", p.velocity_tier, p.blocks, p.errors,
                 f"{p.bler:.8g}", f"{p.halfwidth:.8g}") for p in points])
    for p in points:  # undersampled: the block budget ran out before target_errors
        print(f"{p.receiver:>12} snr={p.snr_db:5.1f} dB tier={p.velocity_tier:>7} "
              f"bler={p.bler:.4f} ({p.errors}/{p.blocks})"
              + (" undersampled" if p.undersampled else ""))
    print(f"wrote {out / 'eval_results.csv'}")
    return EXIT_OK


def cmd_flops(args, config: dict[str, dict], run: Run) -> int:
    from .complexity import model_report, reduction_factor, render_report, report_csv_rows

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[tuple] = []
    for variant in ("axial", "global", "cnn-resnet"):
        report = model_report(replace(run.model, variant=variant),
                              instrumented=not args.analytic_only)
        print(render_report(report))
        print()
        rows.extend(report_csv_rows(report))
    factor = reduction_factor(run.link.t, run.link.f)
    print(f"reduction factor TF/(T+F) at T={run.link.t}, F={run.link.f}: {factor:.2f}")
    rows.append(("all", "reduction_factor", f"{factor:.6g}", ""))
    _write_csv(out / "flops_report.csv", config, run.train.seed,
               ["variant", "layer", "analytic_flops", "counted_flops"], rows)
    print(f"wrote {out / 'flops_report.csv'}")
    return EXIT_OK


def cmd_selftest(args, config: dict[str, dict], run: Run) -> int:
    from . import selftest

    return EXIT_OK if selftest.run() else EXIT_RUNTIME


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="axialrx",
                     description="OFDM neural-receiver simulator: train, evaluate, "
                                 "count FLOPs, self-test.")
    parser.add_argument("--version", action="version", version=f"axialrx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI configuration file")
        p.add_argument("--preset", default="desk", choices=PRESETS,
                       help="base defaults before the config file is applied")
        p.add_argument("--seed", type=int, default=None,
                       help="override the train/eval master seed")
        p.add_argument("--out", default="axrx_out", help="output directory")

    p_train = sub.add_parser("train", help="train the configured receiver")
    common(p_train)
    p_eval = sub.add_parser("eval", help="BLER sweep of baselines and checkpoints")
    common(p_eval)
    p_eval.add_argument("checkpoints", nargs="*", help="trained model checkpoint files")
    p_eval.add_argument("--threads", type=int, default=1,
                        help="must be >= 1 and is ignored: receivers run on every CPU "
                             "the process may use (see taskset), and the count never "
                             "changes output")
    p_flops = sub.add_parser("flops", help="FLOP/parameter report for all variants")
    common(p_flops)
    p_flops.add_argument("--analytic-only", action="store_true",
                         help="skip the instrumented forward pass")
    p_self = sub.add_parser("selftest", help="run the fast invariant suite")
    common(p_self)
    return parser


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "flops": cmd_flops,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config, args.preset)
        apply_seed_overrides(config, args.seed)
        if args.seed is not None and args.seed < 0:
            raise UsageError("--seed must be >= 0")
        if args.command == "eval" and args.threads < 1:
            raise UsageError("--threads must be >= 1")
        return COMMANDS[args.command](args, config, validated(config))
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # runtime failures: training divergence, I/O, checkpoints
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
