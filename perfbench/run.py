"""Benchmark of the mckvlab recovery pipeline.

    python3 perfbench/run.py --workload ula-1d --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

One workload runs in this process: set-up, one untimed warm-up op, ops
for ``--seconds`` of wall time, set-up again, then the output check.
Set-up runs ``SETUP_REPEATS`` times before and ``SETUP_REPEATS`` times
after the timed region, and the median of all of them is reported.

A reference kernel (``reference.py``) measures how fast the machine is
running: on a timer while ops run, and around each set-up.  The gated
times, ``op_ms_ref`` and ``setup_s``, are wall times rescaled by the
speed it measured, so they read as times at the kernel's nominal speed;
the raw wall-time figures are printed beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the gated end-to-end metrics
with ``--trace 0``, the per-layer metrics from the span tracer with
``--trace 1``.  ``--workload all`` runs every workload in its own
process, untraced and traced, and prints every figure and the tracing
overhead.  The library is imported from ``src/`` next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

import os

# pin BLAS/OpenMP threads before numpy is imported anywhere
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
SETUP_SAMPLES = 3  # reference samples before and after each set-up
P90_MIN_OPS = 100

# end-to-end figures a run prints; GATED are the ones BENCHMARK.json bounds
UNITS = {"setup_s": "s", "op_ms_ref": "ms", "peak_rss_mb": "MB",
         "setup_wall_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
         "op_ms_p90": "ms", "ref_slowdown": "1", "recovery_err": "1"}
GATED = ("setup_s", "op_ms_ref", "peak_rss_mb")


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*names, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced problem sizes, for the harness smoke test")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mckvlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"threads": {v: os.environ[v] for v in THREAD_VARS},
            "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "src_sha256": digest.hexdigest()}


# per-op layer metrics: (metric, span name, aggregate key, unit)
LAYER_ROWS = [
    ("forward.jacobian_stack.calls", "forward.jacobian_stack", "calls", "count/op"),
    ("forward.jacobian_stack.columns", "forward.jacobian_stack", "amount", "count/op"),
    ("forward.jacobian_stack.s", "forward.jacobian_stack", "s", "s/op"),
    ("inference.loglik_and_grad.calls", "inference.loglik_and_grad", "calls", "count/op"),
    ("inference.loglik_and_grad.self_s", "inference.loglik_and_grad", "self_s", "s/op"),
    ("inference.obs.gather_bytes_computed", "inference.loglik_and_grad", "amount", "B/op"),
    ("forward.solve_mckv.calls", "forward.solve_mckv", "calls", "count/op"),
    ("forward.solve_mckv.s", "forward.solve_mckv", "s", "s/op"),
    ("spectral.transport_div.calls", "spectral.transport_div", "calls", "count/op"),
    ("spectral.transport_div.self_s", "spectral.transport_div", "self_s", "s/op"),
    ("forward.jacobian_columns.calls", "forward.jacobian_columns", "calls", "count/op"),
    ("forward.jacobian_columns.columns", "forward.jacobian_columns", "amount", "count/op"),
    ("forward.jacobian_columns.s", "forward.jacobian_columns", "s", "s/op"),
    ("forward.second_derivative.calls", "forward.second_derivative", "calls", "count/op"),
    ("forward.second_derivative.s", "forward.second_derivative", "s", "s/op"),
    ("forward.gram_matrix.s", "forward.gram_matrix", "s", "s/op"),
    ("parabolic.integrate.calls", "parabolic.integrate", "calls", "count/op"),
    ("parabolic.integrate.steps", "parabolic.integrate", "amount", "count/op"),
    ("parabolic.integrate.self_s", "parabolic.integrate", "self_s", "s/op"),
    ("stability.report.s", "stability.report", "s", "s/op"),
    ("stability.sigma_min_trend.s", "stability.sigma_min_trend", "s", "s/op"),
    ("inference.estimate_c1.s", "inference.estimate_c1", "s", "s/op"),
    ("inference.expected_neg_hessian.s", "inference.expected_neg_hessian", "s", "s/op"),
    ("spectral.transform.calls", "spectral.transform", "calls", "count/op"),
    ("spectral.transform.points", "spectral.transform", "amount", "count/op"),
    ("spectral.transform.self_s", "spectral.transform", "self_s", "s/op"),
    ("inference.surrogate.calls", "inference.surrogate", "calls", "count/op"),
    ("sampler.run_ula.self_s", "sampler.run_ula", "self_s", "s/op"),
    ("sampler.diagnostics.s", "sampler.diagnostics", "s", "s/op"),
]


def layer_metrics(tracer, ops, busy_s, speed, op_ms_ref, t_start, t_end,
                  setup_windows, setup_speeds) -> dict:
    """Per-op layer figures over the timed region, per-set-up set-up figures.

    Times are rescaled like ``op_ms_ref`` and ``setup_s``: by the mean speed
    the reference kernel measured over the timed region, or around each
    set-up.
    """
    agg, *setup_aggs = tracer.aggregate([(t_start, t_end), *setup_windows])
    out = {metric: (agg[span][key] / ops * (speed if unit == "s/op" else 1.0), unit)
           for metric, span, key, unit in LAYER_ROWS}

    # a linearised solve: one jacobian_stack call (D columns), one
    # solve_linear_lw call or one second-derivative solve (one column each)
    single = agg["parabolic.solve_linear_lw"]["calls"] + agg["forward.second_derivative"]["calls"]
    solves = agg["forward.jacobian_stack"]["calls"] + single
    columns = agg["forward.jacobian_stack"]["amount"] + single
    out["forward.linear.solves"] = (solves / ops, "count/op")
    out["forward.linear.columns_per_solve"] = (columns / solves if solves else 0.0, "count")
    skipped = tracer.count_without_child(t_start, t_end, "inference.surrogate",
                                         "inference.loglik_and_grad")
    out["inference.surrogate.pde_skipped"] = (skipped / ops, "count/op")
    for name in ("inference.generate_data", "inference.evaluator_init"):
        out[name + ".s"] = (statistics.median(totals[name]["s"] * sp for totals, sp
                                              in zip(setup_aggs, setup_speeds)), "s")
    a = tracer.table
    spans = int(((a["start"] >= t_start) & (a["end"] <= t_end)).sum())
    out["trace.spans"] = (spans / ops, "count/op")
    out["trace.ops_per_s"] = (ops / busy_s, "1/s")
    out["trace.op_ms_ref"] = (op_ms_ref, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def run_one(args) -> int:
    import numpy as np

    import workloads
    from reference import Reference
    from tracer import Tracer

    w = workloads.WORKLOADS[args.workload]
    size = w.smoke_size if args.smoke else w.size
    clock = time.perf_counter
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    ref = Reference(w.interp_share)
    setup_windows, setup_speeds = [], []

    def speed():
        return 1.0 / ref.sample()

    def build():
        before = [speed() for _ in range(SETUP_SAMPLES)]
        t0 = clock()
        built = workloads.build(size, args.seed)
        t1 = clock()
        after = [speed() for _ in range(SETUP_SAMPLES)]
        setup_windows.append((t0, t1))
        setup_speeds.append(statistics.mean(before + after))
        return built

    # half the set-ups before the timed region and half after, so that the
    # median samples the machine at both ends of the run
    for _ in range(SETUP_REPEATS):
        setup = build()
    runner = w.make(setup, args.seed)
    runner.warm_up()
    # the reference kernel samples the machine every INTERVAL_S while ops
    # run; a batch's busy time is its wall time less the kernel's, and it
    # is rescaled by the mean speed that the samples in it saw
    batches, latencies, attempted, failed = [], [], 0, 0
    first = len(ref.slowdown)
    ref.sample()
    ref.start()
    try:
        t_start = clock()
        deadline = t_start + args.seconds
        while clock() < deadline:
            t0 = clock()
            lat, fails = runner.batch()
            batches.append((t0, clock()))
            latencies += lat
            attempted += len(lat) + fails
            failed += fails
        t_end = clock()
    finally:
        ref.stop()
    busy = scaled = 0.0
    for t0, t1 in batches:
        took, batch_speed = ref.window(t0, t1)
        busy += t1 - t0 - took
        scaled += (t1 - t0 - took) * batch_speed
    run_slowdown = ref.median_slowdown(first)
    for _ in range(SETUP_REPEATS):
        build()
    if tracer:
        tracer.finish()

    checks = runner.check()
    failed += sum(not ok for _, ok, _ in checks)
    ops = len(latencies)
    lat_ms = np.array(latencies) * 1e3
    op_ms_ref = scaled / ops * 1e3 if ops else None
    setup_raw = [t1 - t0 for t0, t1 in setup_windows]
    figures = {"setup_s": statistics.median(t * sp for t, sp in zip(setup_raw, setup_speeds)),
               "op_ms_ref": op_ms_ref,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "setup_wall_s": statistics.median(setup_raw),
               "ops_per_s": ops / busy,
               "op_ms_p50": float(np.median(lat_ms)) if ops else None,
               "op_ms_p90": (float(np.percentile(lat_ms, 90))
                             if ops >= P90_MIN_OPS else None),
               "ref_slowdown": run_slowdown,
               **runner.extras()}
    figures = {k: {"value": v, "unit": UNITS[k]} for k, v in figures.items()}
    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "ops": ops,
              "figures": figures,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
              "env": environment()}

    if tracer:
        metrics = layer_metrics(tracer, max(ops, 1), busy, scaled / busy, op_ms_ref,
                                t_start, t_end, setup_windows, setup_speeds)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"{w.name}.spans.npz")
    else:
        metrics = {k: figures[k] for k in GATED}

    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    for key, m in figures.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
        print(f"{w.name} {key} = {value}")
    print(f"{w.name} ops attempted = {attempted}, failed = {failed}")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0 and ops > 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, names) -> int:
    """Every workload in its own process, untraced then traced."""
    results = {}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=args.seconds + 600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace} exited with code {proc.returncode}")
                return 1
            for line in lines[:-1]:
                if not line.startswith("report "):
                    print(f"[{name} trace={trace}] {line}")
            report = next(json.loads(line[len("report "):]) for line in lines
                          if line.startswith("report "))
            results[name, trace] = json.loads(lines[-1]), report

    print()
    print(f"{'workload':<14}{'metric':<40}{'value':>14}  unit")
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        (plain, plain_report), (traced, _) = results[name, 0], results[name, 1]
        for res in (plain, traced):
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
        print(f"{name:<14}{'ops attempted / failed':<40}"
              f"{plain['attempted']:>8} / {plain['failed']:<4}")
        rows = {k: m for k, m in plain_report["figures"].items() if m["value"] is not None}
        rows.update(traced["metrics"])
        overhead = (rows["ops_per_s"]["value"] - rows["trace.ops_per_s"]["value"])
        rows["trace.overhead_ops_per_s"] = {"value": overhead, "unit": "1/s"}
        overhead = (rows["trace.op_ms_ref"]["value"] - rows["op_ms_ref"]["value"])
        rows["trace.overhead_op_ms_ref"] = {"value": overhead, "unit": "ms"}
        for key, m in rows.items():
            print(f"{name:<14}{key:<40}{m['value']:>14.6g}  {m['unit']}")
            combined[f"{name}.{key}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    if not (SRC / "mckvlab" / "__init__.py").is_file():
        sys.stderr.write(f"mckvlab sources not found under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
