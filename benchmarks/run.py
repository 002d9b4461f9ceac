"""Benchmark of the csck engine: one workload per run.

Run from the repository root:

    python3 benchmarks/run.py --workload {sweep,profile,cli} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run measures the workload untraced for S seconds
and reports the end-to-end metrics. With ``--trace 1`` it runs the
workload's fixed traced op list twice, untraced and then under the
outside-in tracer, and reports the per-layer metrics of the traced pass
plus the tracer's overhead; a traced sweep run also counts the failures
of the defect probe, which are not ops of the workload. Every op's
outputs are checked either way.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the provenance of the run and the failures tallied by exception
type and by check name. The program is imported from ``src/`` of the
checkout the command runs in.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT = 120
REFERENCE_WINDOW = 5

# traced span -> statistics reported as <span>.<stat>; BENCHMARK.json lists the names
LAYER_STATS = (
    ("polynomials.real_root_profile", ("calls", "self_ms", "fail")),
    ("branches.classify", ("calls", "self_ms", "fail")),
    ("cases.match_label", ("self_ms",)),
    ("quadrature.partial_fractions", ("calls", "self_ms", "fail")),
    ("quadrature.gauge", ("self_ms",)),
    ("quadrature.solve_g", ("calls", "self_ms", "fail")),
    ("quadrature.eval_F", ("calls",)),
    ("quadrature.shoot_ode", ("self_ms",)),
    ("geometry.potential_u", ("calls", "self_ms")),
    ("geometry.metric_sample", ("self_ms",)),
    ("geometry.verify_solution", ("self_ms",)),
    ("geometry.scalar_curvature", ("self_ms",)),
    ("geometry.curvature_fd", ("self_ms",)),
    ("geometry.metric_tensor", ("self_ms",)),
    ("reduction.f_of", ("self_ms",)),
    ("catalog.cross_check", ("self_ms",)),
    ("catalog.instantiate", ("self_ms",)),
    ("inequalities.certify_negative", ("self_ms",)),
    ("reduction.ode_residual", ("self_ms",)),
    ("cli.main", ("self_ms",)),
)
STAT_UNITS = {"calls": "count", "self_ms": "ms", "fail": "count"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["sweep", "profile", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


def _run_child(args):
    return subprocess.run(
        [sys.executable, *args],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=True,
    )


def _make_workload(name, seed, workdir):
    import workloads

    if name == "sweep":
        return workloads.Sweep(seed, workdir)
    if name == "profile":
        return workloads.Profile(seed, workdir)
    return workloads.Cli(seed, workdir, str(SRC))


def measure_setup(name, seed, workdir):
    """Median over repeats of: a fresh interpreter through ``import csck``,
    plus building the workload's inputs."""
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _run_child(["-c", "import csck"])
        wl = _make_workload(name, seed, workdir)
        next(iter(wl.batches()))
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def import_split():
    """Cumulative import times (ms) of csck and scipy.integrate, from
    ``python -X importtime`` in fresh interpreters; medians over repeats."""
    got = {"csck": [], "scipy.integrate": []}
    for _ in range(IMPORT_REPEATS):
        err = _run_child(["-X", "importtime", "-c", "import csck"]).stderr
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in got:
                seen[parts[2].strip()] = int(parts[1]) / 1000.0
        for key in got:
            got[key].append(seen.get(key, 0.0))
    return {key: statistics.median(vals) for key, vals in got.items()}


class Outcomes:
    """Per-op durations and failures, tallied by exception type and check."""

    def __init__(self):
        self.durations = []
        self.busy = 0.0
        self.failed = 0
        self.by_error = Counter()
        self.by_check = Counter()

    def run(self, wl, item):
        t0 = time.perf_counter()
        try:
            checks = wl.run(item)
        except Exception as exc:
            checks = None
            self.by_error[type(exc).__name__] += 1
        self.durations.append(time.perf_counter() - t0)
        self.busy += self.durations[-1]
        if checks is None or checks:
            self.failed += 1
            self.by_check.update(checks or ())

    @property
    def attempted(self):
        return len(self.durations)

    @property
    def correct(self):
        return self.failed == 0


def timed_run(wl, seconds):
    """Run whole batches until ``seconds`` of op time have passed.

    Op times drift with the speed of a shared machine, so the workload's
    reference task, which runs no csck code, is timed between ops (every
    ``wl.calibrate_every`` seconds of op time, outside the op times). The
    ops between two reference timings get one speed factor: the median of
    the REFERENCE_WINDOW reference times centred on them, over the
    reference's nominal time. Returns the outcomes and each op's factor.
    """
    out = Outcomes()
    refs = []
    taken_at = []
    due = 0.0
    for batch in wl.batches():
        for item in batch:
            if out.busy >= due:
                taken_at.append(out.attempted)
                refs.append(wl.reference())
                due += wl.calibrate_every
            out.run(wl, item)
        if out.busy >= seconds:
            break
    half = REFERENCE_WINDOW // 2
    factor = [
        statistics.median(refs[max(0, j - half): j + half + 1]) / wl.reference_s
        for j in range(len(refs))
    ]
    segment = np.searchsorted(taken_at, np.arange(out.attempted), side="right") - 1
    return out, np.asarray(factor)[segment]


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(wl, args, setup_s):
    out, factors = timed_run(wl, args.seconds)
    raw = np.asarray(out.durations)
    scaled = raw / factors
    n = out.attempted
    q = wl.tail_percent
    print(
        f"ops {n} in {raw.sum():.3f} s of op time; op_tail_ms is p{q} with "
        f"{n * (100 - q) / 100:.0f} ops beyond it; speed factor median "
        f"{np.median(factors):.4f}, range {factors.min():.4f}-{factors.max():.4f}"
    )
    print(
        f"unscaled: ops_per_s {n / raw.sum():.4f}, op_p50_ms {np.percentile(raw, 50) * 1e3:.4f},"
        f" op_tail_ms {np.percentile(raw, q) * 1e3:.4f}"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / scaled.sum(), "1/s"),
        "op_p50_ms": (float(np.percentile(scaled, 50)) * 1e3, "ms"),
        "op_tail_ms": (float(np.percentile(scaled, q)) * 1e3, "ms"),
        "ok_share": ((n - out.failed) / n, "share"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    return out, metrics


def traced(wl):
    from tracer import Tracer, summarize

    items = wl.traced_items()
    if wl.name == "cli":
        wl.inprocess = True
    plain = Outcomes()
    t0 = time.perf_counter()
    for item in items:
        plain.run(wl, item)
    wall_plain = time.perf_counter() - t0

    out = Outcomes()
    with Tracer() as tracer:
        t0 = time.perf_counter()
        for item in items:
            out.run(wl, item)
        wall_traced = time.perf_counter() - t0
    BUILD.mkdir(exist_ok=True)
    tracer.save(BUILD / f"spans-{wl.name}.npz")
    print(f"traced {len(items)} ops: {wall_plain:.3f} s untraced, {wall_traced:.3f} s traced")

    stats, child_counts = summarize(tracer.arrays(), tracer.names)
    metrics = {}
    for span, kinds in LAYER_STATS:
        for kind in kinds:
            metrics[f"{span}.{kind}"] = (stats[span][kind], STAT_UNITS[kind])
    rrp = stats["polynomials.real_root_profile"]["calls"]
    metrics["polynomials.real_root_profile.per_op"] = (rrp / len(items), "calls/op")
    solves = stats["quadrature.solve_g"]["calls"]
    evals_under, no_eval = child_counts("quadrature.solve_g", "quadrature.eval_F")
    metrics["quadrature.solve_g.cache_hit_share"] = (no_eval / solves if solves else 0.0, "share")
    metrics["quadrature.eval_F.per_solve_g"] = (evals_under / solves if solves else 0.0, "calls/call")
    imports = import_split()
    metrics["import.csck_ms"] = (imports["csck"], "ms")
    metrics["import.scipy_integrate_ms"] = (imports["scipy.integrate"], "ms")
    metrics["trace.overhead_share"] = ((wall_traced - wall_plain) / wall_plain, "share")
    if plain.failed != out.failed:
        print(f"untraced pass failed {plain.failed} ops, traced pass {out.failed}")
    metrics["defect_probe.failed"] = (defect_probe(wl), "count")
    return out, metrics, plain.correct


def defect_probe(wl):
    """Ops of the sweep's defect probe for the seed that raise or fail
    their check; they are reported here and never counted as ops."""
    if wl.name != "sweep":
        return 0
    import workloads

    probe = workloads.DefectProbe(wl.seed, None)
    out = Outcomes()
    for item in probe.traced_items():
        out.run(probe, item)
    print(
        f"defect probe: {out.failed} of {out.attempted} ops failed; by exception "
        + json.dumps(dict(sorted(out.by_error.items())))
        + " by check " + json.dumps(dict(sorted(out.by_check.items())))
    )
    return out.failed


def provenance(args):
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "csck" / "__init__.py").is_file():
        sys.stderr.write(f"no csck sources under {SRC}; run from the repository root\n")
        return 2
    sys.path.insert(0, str(SRC))
    BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD) as workdir:
        print("provenance " + json.dumps(provenance(args), sort_keys=True))
        if args.trace:
            wl = _make_workload(args.workload, args.seed, workdir)
            out, metrics, plain_ok = traced(wl)
        else:
            setup_s = measure_setup(args.workload, args.seed, workdir)
            wl = _make_workload(args.workload, args.seed, workdir)
            out, metrics = end_to_end(wl, args, setup_s)
            plain_ok = True
    print("failures by exception " + json.dumps(dict(sorted(out.by_error.items()))))
    print("failures by check " + json.dumps(dict(sorted(out.by_check.items()))))
    result = {
        "correct": plain_ok and out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
