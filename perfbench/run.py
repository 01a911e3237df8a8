"""flicforq benchmark: one workload, one closed-loop client, one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload gate_fidelity --seed 1 --seconds 30 --trace 0

One client in this process sends the next op only after the previous one
returns.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, their times rescaled to the host at full speed by a reference
kernel timed next to them (hostspeed.py); with ``--trace 1`` it carries
the per-layer metrics of a traced
run, whose spans are also written to ``perfbench/out/``.  The lines before
it list the machine facts and every metric with its unit, ``fail_ratio``
included.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

T_PROCESS = time.perf_counter()

# Cap BLAS/OpenMP threads at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    try:
        _cur = int(os.environ.get(_var, ""))
    except ValueError:
        _cur = NPROC
    os.environ[_var] = str(max(1, min(_cur, NPROC)))

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

from tracing import error_counts, layer_totals  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOAD_NAMES = ("gate_fidelity", "oracle_verify", "cnot_fidelity", "d_simulate",
                  "device_sweep")
SETUP_SAMPLES = 3
ROUNDS = 1024  # more than a run of a minute can use
LAYERS = (
    "compiler.calibrate", "compiler.compile", "model.json", "model.validate",
    "integrator.propagator", "integrator.evolve", "integrator.oracle",
    "integrator.frame", "integrator.csv", "analysis.gate_fidelity",
    "analysis.virtual_z", "analysis.state", "analysis.error_budget",
)
SHARES = ("compiler.calibrate", "integrator.propagator", "integrator.evolve",
          "integrator.oracle", "analysis.gate_fidelity", "analysis.error_budget")
ROUTES = ("integrator.propagator", "integrator.evolve")
MODULES = ("compiler", "model", "integrator", "analysis")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="flicforq benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def machine_facts() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    quota = None
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            with open(path) as fh:
                quota = fh.read().strip()
            break
        except OSError:
            pass
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # not a git checkout
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota": quota,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit,
    }


SETUP_CODE = """
import time
t = time.perf_counter()
import workloads as W
if {calibrated}:
    W.calibrate(W.BENCH_PARAMS)
print(time.perf_counter() - t)
"""


def child_setup_seconds(calibrated: bool) -> float:
    """Set-up time of a fresh interpreter: import the package and, if the
    workload needs it, calibrate the benchmark device."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(calibrated=calibrated)],
        cwd=ROOT, env=env, check=True, timeout=120, capture_output=True, text=True,
    )
    return float(proc.stdout.split()[-1])


def run_op(wl, item, tracer, ref, tmp_dir, op_id, log):
    """One op: its wall time, and its result dict or None if it failed."""
    t = time.perf_counter()
    try:
        with tracer.op(op_id):
            out = wl.run(item, tracer, ref, tmp_dir)
    except Exception as exc:  # any failure counts against fail_ratio
        out = None
        log.append(f"op {op_id} failed: {type(exc).__name__}: {exc}")
    return time.perf_counter() - t, out


def per_layer(tracer, traced, untraced, results, setup_cal_s, periodic):
    totals, op_time = layer_totals(tracer.spans, [i for i, _ in traced])
    n = max(1, len(traced))
    m = {}
    for name in LAYERS:
        m[f"{name}.s"] = (totals.get(name, 0.0) / n, "s")
    for name in SHARES:
        m[f"{name}.share"] = (totals.get(name, 0.0) / op_time if op_time else 0.0, "ratio")
    traced_ids = {i for i, _ in traced}
    ok = [r for i, r in results if r is not None and i in traced_ids]
    for name in ROUTES:
        steps = sum(r["steps"].get(name.split(".")[1], 0) for r in ok)
        m[f"{name}.ns_per_step"] = (1e9 * totals.get(name, 0.0) / steps if steps else 0.0, "ns/step")
    m["integrator.steps"] = (statistics.mean(r["all_steps"] for r in ok) if ok else 0.0, "count")
    every = [r for _, r in results if r is not None]
    for key, metric in (("unitarity_defect", "integrator.unitarity_defect.max"),
                        ("oracle_gap", "integrator.oracle_gap.max"),
                        ("fidelity_err", "analysis.fidelity_err.max")):
        m[metric] = (max((r[key] for r in every if key in r), default=0.0), "1")
    m["compiler.calibrate.setup_s"] = (setup_cal_s, "s")
    errors = error_counts([s for s in tracer.spans if s["op"] in traced_ids])
    for mod in MODULES:
        m[f"{mod}.errors"] = (errors.get(mod, 0), "count")
    p_traced = statistics.median(t for _, t in traced) if traced else 0.0
    p_plain = statistics.median(untraced) if untraced else 0.0
    m["trace.overhead"] = (p_traced / p_plain - 1.0 if p_plain else 0.0, "ratio")
    m["inputs.periodic_carrier.share"] = (statistics.mean(periodic) if periodic else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    try:
        import workloads as W
    except ImportError as exc:
        print(f"error: cannot import flicforq from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t
    import hostspeed as H  # after the timed import: it loads numpy too
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {REFERENCE}: {exc}", file=sys.stderr)
        return 2

    wl = W.WORKLOADS[args.workload]
    tracer = W.Tracer(bool(args.trace))
    # Set-up, SETUP_SAMPLES times: this process's own import and calibration,
    # then fresh interpreters, each bracketed by the reference kernel.
    ref_prev = H.reference_seconds()
    setup_cal_s = 0.0
    if wl.calibrated_setup:
        t = time.perf_counter()
        with tracer.op("setup"):
            tracer.call("compiler.calibrate", W.calibrate, W.BENCH_PARAMS)
        setup_cal_s = time.perf_counter() - t
    ref_next = H.reference_seconds()
    setup_wall = [import_s + setup_cal_s]
    setup_adj = [H.adjusted(setup_wall[0], ref_prev, ref_next)]
    for _ in range(SETUP_SAMPLES - 1):
        ref_prev = ref_next
        setup_wall.append(child_setup_seconds(wl.calibrated_setup))
        ref_next = H.reference_seconds()
        setup_adj.append(H.adjusted(setup_wall[-1], ref_prev, ref_next))
    facts = machine_facts()

    rounds = W.make_rounds(args.workload, args.seed, ROUNDS)
    plain = W.Tracer(False)
    log: list[str] = []
    times: list[float] = []        # untraced op wall times
    adj_times: list[float] = []    # the same, adjusted to the host at full speed
    traced: list[tuple] = []       # (op id, traced op time)
    results: list[tuple] = []      # (op id, result or None)
    items = []
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp_dir:
        # Warm-up: an input from the far end of the seed's stream, checked
        # and counted but not timed.
        _, out = run_op(wl, rounds[-1][0], plain, ref, tmp_dir, "warm-up", log)
        results.append(("warm-up", out))
        ref_next = H.reference_seconds()
        t_start = time.perf_counter()
        deadline = t_start + args.seconds
        for rnd in rounds:
            if items and time.perf_counter() >= deadline:
                break
            for item in rnd:
                op_id = len(items)
                items.append(item)
                if not args.trace:
                    ref_prev = ref_next
                    dt, out = run_op(wl, item, plain, ref, tmp_dir, op_id, log)
                    ref_next = H.reference_seconds()
                    times.append(dt)
                    adj_times.append(H.adjusted(dt, ref_prev, ref_next))
                    results.append((op_id, out))
                    continue
                # Traced run: the same input untraced and traced, in
                # alternating order, so trace.overhead compares like with like.
                for traced_now in ((False, True) if op_id % 2 == 0 else (True, False)):
                    tr = tracer if traced_now else plain
                    dt, out = run_op(wl, item, tr, ref, tmp_dir, op_id, log)
                    results.append((op_id, out))
                    if traced_now:
                        traced.append((op_id, dt))
                    else:
                        times.append(dt)
        elapsed = time.perf_counter() - t_start

    attempted = len(results)
    failed = sum(1 for _, r in results if r is None)
    for line in log[:20]:
        print(line, file=sys.stderr)

    if args.trace:
        periodic = [W.input_is_periodic(args.workload, it) for it in items]
        layer = per_layer(tracer, traced, times, results, setup_cal_s, periodic)
        dominant = max(SHARES, key=lambda name: layer[f"{name}.share"][0])
        write_trace(args, facts, tracer, layer, dominant)
        metrics = layer
    else:
        metrics = {
            "ops_per_s": (len(adj_times) / sum(adj_times), "1/s"),
            "setup_s": (statistics.median(setup_adj), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        dominant = None

    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops "
          f"({len(times)} untraced) in {elapsed:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    if adj_times:
        # Not in the JSON: op_s.p50 rests on input-dependent costs (see
        # README), the wall figures on how busy the host was.
        print(f"  {'op_s.p50':36s} {statistics.median(adj_times):.6g} s")
        print(f"  {'op_s.p50 (wall)':36s} {statistics.median(times):.6g} s")
        print(f"  {'ops_per_s (wall, ops only)':36s} {len(times) / sum(times):.6g} 1/s")
        print(f"  {'setup_s (wall)':36s} {statistics.median(setup_wall):.6g} s")
    print(f"  {'fail_ratio':36s} {failed / attempted:.6g} failed/attempted")
    if dominant:
        print(f"  dominant layer: {dominant}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_trace(args, facts, tracer, layer, dominant) -> None:
    spans = [
        {**s, "start": s["start"] - T_PROCESS, "end": s["end"] - T_PROCESS}
        for s in tracer.spans
    ]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": facts,
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "dominant_layer": dominant,
        "spans": spans,
    }
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
