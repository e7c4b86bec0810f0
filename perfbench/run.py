#!/usr/bin/env python3
"""Benchmark of the tumoropt solver.

    python3 perfbench/run.py --workload forward_64 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

One workload runs in one process as a closed loop with one client: set-up is
repeated and timed (``setup_s``), then units of the workload run one after
another until ``--seconds`` is spent (``solve_s``, the median unit).  Every
unit passes through its correctness gate and fingerprint outside the timing.
With ``--trace 1`` the package's layers are wrapped by ``tracing.Tracer`` and
the per-layer metrics are reported instead; the spans go to
``perfbench/out/trace-<workload>.csv``.  ``--workload all`` runs every
workload in its own process and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
non-zero if a correctness gate, the counter-repeat check or the fingerprint
check fails.
"""

import os

# BLAS thread pools are sized when numpy loads; one thread per process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
NAMES = ("forward_64", "derivatives_32", "optimize_12", "ckpt_24")
NEEDS = {"optimize_12": ("configs/optimize_sparse.cfg",)}
DEFAULT_SEED = 0
FINGERPRINT_RTOL = 1e-8
SETUPS = 9
MIN_UNITS, MIN_TRACED_UNITS = 3, 2
TRACED_SETUPS = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    missing = [p for p in ("src/tumoropt/__init__.py",) + NEEDS.get(args.workload, ())
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: source tree incomplete under {ROOT}: missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tumoropt
    if Path(tumoropt.__file__).resolve().parent != ROOT / "src" / "tumoropt":
        print(f"perfbench: imported tumoropt from {tumoropt.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, scratch):
    from tracing import COUNTERS, Tracer, check_nesting, inclusive, layer_metrics, \
        layer_self_times, median_metrics, self_times, unit_spans
    from workloads import WORKLOADS

    wl = WORKLOADS[name](ROOT, seed, scratch)
    problems: list[str] = []
    units: list[dict] = []

    def run_unit(call, st) -> None:
        started = perf_counter()
        fp, error = None, None
        try:
            out = call(wl.unit, st)
            elapsed = perf_counter() - started
            error, fp = wl.verify(st, out)
        except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
            elapsed = perf_counter() - started
            error = f"{type(exc).__name__}: {exc}"
        units.append({"seconds": elapsed, "error": error, "fingerprint": fp})
        if error:
            print(f"unit {len(units)} failed: {error}", file=sys.stderr)

    def loop(call, st, budget, min_units) -> None:
        start = perf_counter()
        times: list[float] = []
        while True:
            run_unit(call, st)
            times.append(units[-1]["seconds"])
            spent = perf_counter() - start
            if len(times) >= min_units and spent + 0.5 * statistics.median(times) >= budget:
                return

    direct = (lambda fn, st: fn(st))
    # a fixed count, so every run allocates alike and peak RSS repeats
    setup_times: list[float] = []
    for _ in range(SETUPS):
        st = None
        t0 = perf_counter()
        st = wl.setup()
        setup_times.append(perf_counter() - t0)

    per_layer = None
    if not trace:
        loop(direct, st, seconds, MIN_UNITS)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # one untraced unit gives the base of the tracing overhead
        t_start = perf_counter()
        run_unit(direct, st)
        untraced = units[0]["seconds"]
        tracer = Tracer()
        tracer.install()
        try:
            for i in range(TRACED_SETUPS):
                st = tracer.run(f"setup-{i}", wl.setup)
            counter = itertools.count(1)
            loop(lambda fn, s: tracer.run(f"unit-{next(counter)}", fn, s), st,
                 seconds - (perf_counter() - t_start), MIN_TRACED_UNITS)
        finally:
            tracer.uninstall()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n_nodes = st.system.grid.n_nodes
        traced_ids = [f"unit-{i}" for i in range(1, len(units))]
        for uid in [f"setup-{i}" for i in range(TRACED_SETUPS)] + traced_ids:
            items = unit_spans(tracer.spans, uid)
            bad = check_nesting(items, self_times(items))
            if bad:
                problems.append(f"{uid}: {bad}")
        per_unit = [layer_metrics(tracer.spans, uid, n_nodes) for uid in traced_ids]
        for key in COUNTERS:
            values = [u[key] for u in per_unit]
            if len(set(values)) > 1:
                problems.append(f"counter {key} differs between repeats: {values}")
        per_layer = median_metrics(per_unit)
        per_layer["config.build_system_s"] = statistics.median(
            inclusive(tracer.spans, f"setup-{i}", "config.RunConfig.build_system")
            for i in range(TRACED_SETUPS))
        per_layer["trace.overhead"] = statistics.median(
            u["seconds"] for u in units[1:]) / untraced
        layer_self = median_metrics([layer_self_times(tracer.spans, uid)
                                     for uid in traced_ids])
        tracer.write(OUT / f"trace-{name}.csv")

    # fingerprints: equal between repeats, and equal to the stored reference
    fps = [u["fingerprint"] for u in units if u["fingerprint"]]
    for fp in fps[1:]:
        problems += compare(fp, fps[0], "repeat")
    if fps and seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text()).get(name)
        if reference is None:
            problems.append(f"no reference fingerprint for {name}")
        else:
            problems += compare(fps[0], reference, "reference")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    failed = sum(1 for u in units if u["error"])
    result = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed, wl.sizes(st)),
        "load": "closed loop, one client, one process",
        "setup_seconds": setup_times,
        "unit_seconds": [u["seconds"] for u in units],
        "unit_errors": [u["error"] for u in units],
        "fingerprint": fps[0] if fps else None,
        "problems": problems,
        "failed_frac": failed / len(units),
        "peak_rss_mb": rss,
        "correct": failed == 0 and not problems,
        "attempted": len(units),
        "failed": failed,
    }
    if per_layer is None:
        good = [u["seconds"] for u in units if not u["error"]] or result["unit_seconds"]
        result["metrics"] = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "solve_s": metric(statistics.median(good), "s"),
            "peak_rss_mb": metric(rss, "MiB"),
        }
    else:
        result["layer_self_seconds"] = layer_self
        result["metrics"] = {k: metric(v, unit_of(k)) for k, v in sorted(per_layer.items())}
    return result


def compare(fp: dict, ref: dict, what: str) -> list[str]:
    out = []
    for key in sorted(set(fp) | set(ref)):
        a, b = fp.get(key), ref.get(key)
        if a is None or b is None or not abs(a - b) <= FINGERPRINT_RTOL * abs(b):
            out.append(f"{what} fingerprint {key} = {a!r}, expected {b!r}")
    return out


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if ".bytes_" in name:
        return "B"
    if name.endswith(("_ratio", "_per_step", ".overhead")):
        return "ratio"
    return "count"


def environment(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "sizes": sizes,
    }


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  trace {result['trace']}  seed {env['seed']}  "
          f"sizes {json.dumps(env['sizes'])}")
    print(f"environment {json.dumps({k: v for k, v in env.items() if k not in ('seed', 'sizes')})}")
    if result["trace"]:
        for key, m in result["metrics"].items():
            print(f"  {key:28s} {m['value']:14.6g} {m['unit']}")
        return
    setups, solves = result["setup_seconds"], result["unit_seconds"]
    q = statistics.quantiles(solves, n=4) if len(solves) > 1 else solves * 3
    print(f"  setup_s      {statistics.median(setups):10.4f} s    median of {len(setups)}")
    print(f"  solve_s      {result['metrics']['solve_s']['value']:10.4f} s    median of "
          f"{len(solves)} units (q1 {q[0]:.4f}, q3 {q[2]:.4f})")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:10.1f} MiB")
    print(f"  failed_frac  {result['failed_frac']:10.4f}      "
          f"{result['failed']} of {result['attempted']} units")


# ---------------------------------------------------------------------------
# every workload, each in a fresh process
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    rows, total, failed, ok, metrics = [], 0, 0, True, {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit status {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        ok = ok and proc.returncode == 0 and res["correct"]
        total += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
        rows.append((name, res))
    if not args.trace:
        print(f"\n{'workload':16s} {'setup_s':>10s} {'solve_s':>10s} "
              f"{'peak_rss_mb':>12s} {'failed_frac':>12s}")
        for name, res in rows:
            m = res["metrics"]
            print(f"{name:16s} {m['setup_s']['value']:10.4f} {m['solve_s']['value']:10.4f} "
                  f"{m['peak_rss_mb']['value']:12.1f} "
                  f"{res['failed'] / res['attempted']:12.4f}")
    print(json.dumps({"correct": ok, "attempted": total, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
