"""axialrx benchmark: desk training, paired desk eval and paper-dims inference.

Run from the repository root:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 25 --trace 0

The program under test is `src/axialrx` of the same checkout. With
`--trace 0` the run prints every end-to-end metric of BENCHMARK.json;
with `--trace 1` it measures an untraced pass, then replays the same
rounds with every axialrx module wrapped (see tracing.py) and prints every
per-layer metric. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # the package default; at or below nproc on any machine
SETUP_REPS = 9
SETUP_BUDGET_S = 15.0  # stop repeating set-up once this much time went into it
# Seconds the HostSpeed kernel takes on the reference host (a shared 2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one thread).
REFERENCE_KERNEL_S = 0.0083


class BenchmarkError(RuntimeError):
    pass


def declared_metrics() -> dict[str, dict[str, str]]:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def import_program():
    """Import axialrx from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "axialrx"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no axialrx package under {package}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import axialrx

    if Path(axialrx.__file__).resolve().parent != package.resolve():
        raise BenchmarkError(f"imported axialrx from {axialrx.__file__}, not {package}")
    import workloads

    return workloads


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def blas_threads() -> int | str:
    """Thread count reported by the loaded OpenBLAS, else the pinned setting."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (pinned, not queried)"


class HostSpeed:
    """Times a fixed pure-Python plus BLAS kernel between pieces of work.

    On a shared host the speed of all code drifts together (see
    METRICS.md); end-to-end times are scaled by `scale`, the reference
    kernel time over this run's mean kernel time, so that they read as
    times on the reference host.
    """

    def __init__(self):
        import numpy as np

        self._matrix = np.random.default_rng(0).standard_normal((300, 300))
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(4):
            self._matrix @ self._matrix
        self.samples.append(time.perf_counter() - start)

    @property
    def scale(self) -> float:
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)


class Pass:
    """Rounds run until their own time reaches `seconds`, or over given indices.

    Every round and every probe starts from a collected heap, so neither
    pays for the garbage of what ran before it. `elapsed` sums the rounds
    alone; the output check, the forward probe and the host-speed samples
    after each round are not in it.
    """

    def __init__(self, workload, indices, seconds: float | None, host: HostSpeed,
                 tracer=None):
        self.units = 0
        self.rounds: list[int] = []
        self.elapsed = 0.0
        for index in indices:
            gc.collect()
            start = time.perf_counter()
            units, outputs = workload.run_round(index)
            self.elapsed += time.perf_counter() - start
            workload.check_round(index, outputs)
            self.units += units
            self.rounds.append(index)
            host.sample()
            gc.collect()
            if tracer is not None:
                tracer.phase = "probe"
            workload.probe()
            if tracer is not None:
                tracer.phase = "loop"
            host.sample()
            if seconds is not None and self.elapsed >= seconds:
                break


def set_up(workload, host: HostSpeed) -> list[float]:
    """Repeat the workload's set-up; return the seconds of each repetition."""
    seconds: list[float] = []
    while len(seconds) < SETUP_REPS and sum(seconds) < SETUP_BUDGET_S:
        host.sample()
        start = time.perf_counter()
        workload.setup()
        seconds.append(time.perf_counter() - start)
    host.sample()
    return seconds


def end_to_end(setup_seconds, measured: Pass, forwards: dict[str, list[float]],
               host: HostSpeed):
    """The --trace 0 metrics, times scaled to the reference host, and sample counts."""
    scale = host.scale
    n = measured.units
    metrics = {
        "setup_s": statistics.median(setup_seconds) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units_per_s": n / (measured.elapsed * scale),
    }
    counts = {"setup_s": len(setup_seconds), "units_per_s": n}
    for variant, seconds in forwards.items():
        metrics[f"forward_ms_mean.{variant}"] = statistics.fmean(seconds) * 1e3 * scale
        counts[f"forward_ms_mean.{variant}"] = len(seconds)
    return metrics, counts


def per_layer(tracer, traced: Pass, untraced: Pass, reports, setup_reps: int) -> dict:
    units = traced.units

    def per_unit_ms(name: str) -> float:
        return tracer.self_seconds("loop", name) * 1e3 / units

    def per_call(name: str, scale: float) -> float:
        spans = tracer.select("setup", name)
        calls = sum(1 for s in spans if s.parent is None or tracer.spans[s.parent].name != name)
        return sum(s.self_time for s in spans) * scale / calls if calls else 0.0

    def mean(name: str) -> float:
        values = tracer.values.get(("loop", name), [])
        return statistics.fmean(values) if values else 0.0

    metrics = {
        f"{name}_ms": per_unit_ms(name) for name in (
            "layers.forward", "layers.time_attn", "layers.freq_attn", "layers.global_attn",
            "layers.ffn", "layers.conv", "layers.layernorm", "autodiff.backward",
            "trainer.sample", "trainer.bce", "trainer.adam", "channel.generate",
            "phy.make_grid", "ldpc.encode", "ldpc.decode", "baseline.lmmse",
            "baseline.perfect_csi")
    }
    metrics["autodiff.tape_nodes"] = mean("autodiff.tape_nodes")
    metrics["ldpc.decode_iters_mean"] = mean("ldpc.iterations")
    metrics["ldpc.converged_frac"] = mean("ldpc.converged")
    metrics["ldpc.construct_s"] = per_call("ldpc.construct", 1.0)
    metrics["checkpoint.load_ms"] = per_call("checkpoint.load", 1e3)
    metrics["cli.config_ms"] = tracer.self_seconds("setup", "cli.config") * 1e3 / setup_reps

    forwards = [s for s in tracer.spans if s.phase in ("loop", "probe") and s.name == "layers.forward"]
    for variant, report in reports.items():
        mine = [s for s in forwards if s.tag == variant]
        metrics[f"layers.gflops_per_s.{variant}"] = (
            report.counted_total * len(mine) / sum(s.duration for s in mine) / 1e9)
        metrics[f"complexity.counted_flops.{variant}"] = report.counted_total
        if report.attention_counted:
            core = sum(s.self_time for s in tracer.spans if s.phase in ("loop", "probe")
                       and s.name == "layers.attn_core" and s.tag == variant)
            metrics[f"layers.attn_core_ms.{variant}"] = core * 1e3 / len(mine)
    metrics["layers.attn_core_time_ratio"] = (
        metrics["layers.attn_core_ms.global"] / metrics["layers.attn_core_ms.axial"])
    metrics["complexity.attn_core_flop_ratio"] = (
        reports["global"].attention_counted / reports["axial"].attention_counted)
    metrics["trace.overhead_pct"] = (traced.elapsed / untraced.elapsed - 1.0) * 100.0
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    workloads = import_program()
    from tracing import Tracer, installed

    if workload_name not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload_name!r}, "
                             f"expected one of {sorted(workloads.WORKLOADS)}")
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[workload_name](seed, checks, workloads.load_reference())
    tracer = Tracer()
    host = HostSpeed()
    counts: dict[str, int] = {}
    if not trace:
        setup_seconds = set_up(workload, host)
        workload.check_models()  # also the warm-up: one forward of every variant
        workload.bind()
        work = Pass(workload, workload.indices(), seconds, host)
        metrics, counts = end_to_end(setup_seconds, work, workload.forward_seconds, host)
    else:
        with installed(tracer):
            tracer.phase = "setup"
            setup_seconds = set_up(workload, host)
            tracer.phase = None
        reports = workload.check_models()
        workload.bind()
        untraced = Pass(workload, workload.indices(), seconds / 2, host)
        with installed(tracer):
            workload.bind()
            tracer.phase = "loop"
            work = Pass(workload, untraced.rounds, None, host, tracer)
            tracer.phase = None
        metrics = per_layer(tracer, work, untraced, reports, len(setup_seconds))
    summary = (f"workload {workload.name}: {work.units} x {workload.unit} "
               f"in {work.elapsed:.3f} s over {len(work.rounds)} rounds; "
               f"set-up repeated {len(setup_seconds)} times\n"
               f"host kernel {statistics.fmean(host.samples) * 1e3:.4f} ms mean of "
               f"{len(host.samples)} (reference {REFERENCE_KERNEL_S * 1e3:g} ms); "
               f"end-to-end times scaled by {host.scale:.4f}")
    return checks, metrics, counts, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # before numpy loads: pin BLAS threads so every run uses the same count
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        declared = declared_metrics()
        checks, metrics, counts, summary = run(args.workload, args.seed, args.seconds,
                                               bool(args.trace))
    except (BenchmarkError, OSError) as err:
        print(f"benchmark error: {err!r}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    expected = declared[kind]
    if set(metrics) != set(expected):
        print(f"benchmark error: metrics {sorted(set(metrics) ^ set(expected))} "
              f"differ from the {kind} metrics of BENCHMARK.json", file=sys.stderr)
        return 2

    print(summary)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    for name in sorted(metrics):
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"metric {name} = {metrics[name]:.6g} {expected[name]}{n}")
    failed_frac = checks.failed / checks.attempted
    print(f"checks attempted={checks.attempted} failed={checks.failed} "
          f"failed_frac={failed_frac:.6g}")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": expected[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
