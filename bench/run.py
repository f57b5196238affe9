"""cdmd benchmark: closed-loop workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload suites --seed 0 --seconds 25 --trace 0

One client in one process runs ops back to back, each starting when the
previous one has finished, for ``--seconds`` seconds after set-up. Workloads
(see ``workloads.py``): ``suites``, ``video`` and ``linenoise_cli``. The
inputs are made from ``--seed`` only. BLAS threads are capped at the number
of CPUs this process may use.

With ``--trace 0`` the run reports the ``end_to_end`` metrics named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced ops and
reports the ``per_layer`` metrics (see ``spans.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; an op fails when it raises or an output check
fails. Noise-dependent claims an op missed (``workloads.STATISTICAL_CLAIMS``)
are printed with their values but do not fail it. A fuller record, with the
environment, every op time and the names of failed checks and missed claims,
goes to ``.bench_out/``, and so do the spans of a traced run.

Two further modes:

    python3 bench/run.py --self-test   # per-layer counters repeat exactly
    python3 bench/run.py --baseline    # print a baseline record as JSON
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None
WORKLOAD_NAMES = ("suites", "video", "linenoise_cli")
# The first op of a process runs up to 2x slower (lazy imports, cold caches).
WARMUP_OPS = 1
# Cold set-ups in child processes; setup_s is their median with the run's own.
SETUP_PROBES = 2
# op_p90_s is the highest order statistic with this many samples above it.
TAIL_SAMPLES = 10


def cap_blas_threads():
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    setting = {}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        setting[var] = os.environ[var] = str(max(1, min(current, nproc)))
    return nproc, setting


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def without_build_paths(config):
    """NumPy's build configuration minus the filesystem paths of the machine that built it."""
    if isinstance(config, dict):
        return {k: without_build_paths(v) for k, v in config.items() if k != "path" and not k.endswith("directory")}
    return config


def environment(seed, nproc, blas):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_config": without_build_paths(numpy.show_config(mode="dicts")),
        "blas_threads": blas,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def no_span(name):
    return contextlib.nullcontext()


def setup(workload, seed, workdir, recorder=None):
    """Import cdmd, build the inputs and run the warm-up ops; returns (workload, seconds).

    A recorder, when given, traces the input generation.
    """
    start = time.perf_counter()
    import workloads

    if recorder is not None:
        recorder.install()
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir)
    finally:
        if recorder is not None:
            recorder.uninstall()
    for _ in range(WARMUP_OPS):
        wl.op(no_span)
    return wl, time.perf_counter() - start


def traced_op(wl, recorder):
    recorder.op += 1
    recorder.install()
    try:
        with recorder.span("bench.op"):
            return wl.op(recorder.span)
    finally:
        recorder.uninstall()


def run_op(wl, recorder=None):
    """Run one op, traced when a recorder is given, then check its output.

    Returns (op seconds, names of failed checks, missed claims); checks are
    not timed.
    """
    start = time.perf_counter()
    try:
        out = wl.op(no_span) if recorder is None else traced_op(wl, recorder)
    except Exception as exc:
        traceback.print_exc()
        return time.perf_counter() - start, [f"op raised {type(exc).__name__}"], []
    elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.check(out), wl.missed_claims(out)
    except Exception as exc:
        traceback.print_exc()
        return elapsed, [f"check raised {type(exc).__name__}"], []


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def tail(times):
    """(value, percentile) of the highest order statistic with TAIL_SAMPLES above it.

    With too few samples for such a point above the median, the median.
    """
    ordered = sorted(times)
    k = len(ordered) - 1 - TAIL_SAMPLES
    if k < len(ordered) // 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(wl, seconds, recorder=None):
    """Closed loop for ``seconds``; with a recorder, alternate untraced and traced ops."""
    times = {False: [], True: []}
    failures = Counter()
    missed = {}
    failed_ops = 0
    modes = (False, True) if recorder is not None else (False,)
    cpu0 = cpu_seconds()
    deadline = time.perf_counter() + seconds
    while True:
        for traced in modes:
            elapsed, failed, claims = run_op(wl, recorder if traced else None)
            times[traced].append(elapsed)
            failures.update(failed)
            for claim in claims:
                entry = missed.setdefault(claim["name"], {"ops": 0, "value": claim["value"], "threshold": claim["threshold"]})
                entry["ops"] += 1
            failed_ops += bool(failed)
        if time.perf_counter() >= deadline:
            break
    return times, failures, missed, failed_ops, cpu_seconds() - cpu0


def end_to_end(times, cpu, setups):
    p90, percentile = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_p90_s": p90,
        "ops_per_s": len(times) / sum(times),
        "cpu_per_op_s": cpu / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = f"op_p90_s is p{percentile:.0f} of {len(times)} ops"
    return metrics, note


def per_layer(recorder, times):
    from spans import per_op_layers

    layers, repeat = per_op_layers(recorder.spans)
    metrics = {"trace.overhead_frac": statistics.median(times[True]) / statistics.median(times[False]) - 1}
    for spec in SPEC["per_layer"]:
        name, field = spec["name"].rsplit(".", 1)
        if name != "trace":
            metrics[spec["name"]] = layers.get(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "flops": 0})[field]
    return metrics, layers, repeat


def run(args, workdir, nproc, blas):
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
    wl, setup_s = setup(args.workload, args.seed, workdir, recorder)
    times, failures, missed, failed_ops, cpu = measure(wl, args.seconds, recorder)
    attempted = sum(len(t) for t in times.values())
    env = environment(args.seed, nproc, blas)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": attempted,
        "failed": failed_ops,
        "failed_frac": failed_ops / attempted,
        "failed_checks": dict(failures),
        "missed_claims": missed,
        "op_times_s": times[False],
    }
    lines = [
        f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, {args.seconds} s; "
        f"Python {env['python']}, NumPy {env['numpy']}, SciPy {env['scipy']}, "
        f"BLAS threads {blas['OPENBLAS_NUM_THREADS']} of nproc {nproc}, {env['cpu_model']}",
        f"failed_frac = {failed_ops / attempted:.4g} ({failed_ops} of {attempted} ops)",
    ]
    lines += [f"failed check {name}: {count} ops" for name, count in sorted(failures.items())]
    lines += [
        f"missed noise-dependent claim {name}: {m['ops']} ops, value {m['value']:.4g} against threshold {m['threshold']:.4g}"
        for name, m in sorted(missed.items())
    ]
    repeat = True
    if recorder is None:
        probe = ["--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
        setups = [setup_s] + [run_child(probe) for _ in range(SETUP_PROBES)]
        values, note = end_to_end(times[False], cpu, setups)
        record.update(setup_samples_s=setups, op_p90_note=note)
        lines.append(note)
        specs = SPEC["end_to_end"]
    else:
        values, layers, repeat = per_layer(recorder, times)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv"
        recorder.write(spans_path)
        record.update(
            traced_op_times_s=times[True],
            counts_repeat_across_ops=repeat,
            layers=layers,
            spans_file=str(spans_path.relative_to(ROOT)),
        )
        lines.append(f"calls and flops identical across traced ops: {repeat}")
        specs = SPEC["per_layer"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    record["metrics"] = metrics
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("\n".join(lines))
    print(f"record: {record_path.relative_to(ROOT)}")
    result = {"correct": failed_ops == 0 and repeat, "attempted": attempted, "failed": failed_ops, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_child(argv):
    """Run this script in a child process; returns its last output line, parsed as JSON."""
    proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_counters(workload):
    """Calls and computed flops of every traced name in a short seed-0 run."""
    run_child(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"])
    record = json.loads((OUT / f"{workload}-seed0-trace1.json").read_text())
    counters = {name: (row["calls"], row["flops"]) for name, row in record["layers"].items()}
    return record["counts_repeat_across_ops"], counters


def self_test():
    """Two traced runs per workload at seed 0 must give identical counters."""
    ok = True
    for workload in WORKLOAD_NAMES:
        (repeat1, first), (repeat2, second) = traced_counters(workload), traced_counters(workload)
        differing = sorted(name for name in first.keys() | second.keys() if first.get(name) != second.get(name))
        passed = repeat1 and repeat2 and not differing
        ok = ok and passed
        print(f"{'ok' if passed else 'FAIL'} {workload}: {len(first)} traced names, calls and flops "
              f"{'repeat' if passed else 'differ: ' + (', '.join(differing) or 'within a run')}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


# Single-run figures from ROADMAP.md at its re-anchor (2 cores, Python 3.11.7,
# NumPy 2.4.6, OpenBLAS 0.3.31), kept beside the harness's medians.
ROADMAP_SINGLE_RUN_S = {
    "fig3_noise": 0.75,
    "fig6_lorenz": 0.34,
    "fig8_linenoise": 0.32,
    "frequency_subtracted_dmd 64x4999": 0.20,
    "exact_dmd 64x4999": 0.04,
    "load_matrix 64x5000": 0.22,
    "np.loadtxt 64x5000": 0.14,
}


def baseline(workdir, nproc, blas, repeats=7):
    """Median timings of ROADMAP's table rows plus seed-0 runs of every workload."""
    import numpy as np

    import cdmd
    import cdmd.cli

    def median_time(fn):
        fn()
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    rows = {}
    for name in ("fig2_spectra", "fig3_noise", "fig4_dft", "fig5_fixed_freq", "fig6_lorenz", "fig7_video", "fig8_linenoise"):
        config = cdmd.ExperimentConfig(name, seed=0, output_dir=workdir)
        rows[name] = median_time(lambda: cdmd.run_experiment(config))
    X = cdmd.synth_line_noise(64, 1000.0, 5.0, 60.0, seed=0)
    pair = cdmd.split_snapshots(X)
    lam = np.exp(2j * np.pi * 60.0 / 1000.0)
    rows["frequency_subtracted_dmd 64x4999"] = median_time(
        lambda: cdmd.frequency_subtracted_dmd(pair, [lam, np.conj(lam)], r=6)
    )
    rows["exact_dmd 64x4999"] = median_time(lambda: cdmd.exact_dmd(pair, r=8))
    path = workdir / "linenoise.txt"
    cdmd.cli.save_matrix(X, path)
    rows["load_matrix 64x5000"] = median_time(lambda: cdmd.cli.load_matrix(path))
    rows["np.loadtxt 64x5000"] = median_time(lambda: np.loadtxt(path, skiprows=1))
    table = [
        {"what": name, "harness_median_s": seconds, "roadmap_single_run_s": ROADMAP_SINGLE_RUN_S.get(name)}
        for name, seconds in rows.items()
    ]
    runs = {
        workload: {
            f"trace{trace}": run_child(
                ["--workload", workload, "--seed", "0", "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
            )
            for trace in (0, 1)
        }
        for workload in WORKLOAD_NAMES
    }
    record = {
        "what": "first baseline from bench/run.py",
        "repeats_per_row": repeats,
        "ranks": "exact_dmd r=8, frequency_subtracted_dmd r=6 on the +-60 Hz pair, as in fig8",
        "environment": environment(0, nproc, blas),
        "roadmap_rows": table,
        "workloads_seed0": runs,
    }
    print(json.dumps(record, indent=1, default=str))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"] if SPEC else 10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true", help="check that per-layer counters repeat exactly")
    parser.add_argument("--baseline", action="store_true", help="print a baseline record as JSON")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_test or args.baseline):
        parser.error("one of --workload, --self-test or --baseline is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "cdmd" / "__init__.py").is_file():
        print(f"error: no BENCHMARK.json or cdmd sources under {ROOT}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    nproc, blas = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.baseline:
            return baseline(workdir, nproc, blas)
        if args.setup_probe:
            print(setup(args.workload, args.seed, workdir)[1])
            return 0
        return run(args, workdir, nproc, blas)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
