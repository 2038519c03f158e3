"""headlearn benchmark: one workload per process, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload {record,train,live} --seed N \\
        --seconds S --trace {0,1}

The package is imported from ``src/`` beside this directory.  With
``--trace 0`` the workload runs passes until they have taken ``--seconds``
(at least three), sets up before each of the first few, and times the
reference computation of ``reference.py`` around and inside each pass;
the result holds the end-to-end metrics of ``BENCHMARK.json``.  With
``--trace 1`` traced and untraced passes alternate and the result holds
the per-layer metrics.
Output checks, the environment and a SHA-256 of the outputs are printed
before the result, which is the last line of standard output.  The exit
code is 1 when an output check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
REFS_AT_EDGES = 4  # reference runs right before and right after each pass
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# calibration runs only in set-up, so its per-layer figures come from there
SETUP_SPANS = ("retarget.calibrate_human",)


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _environment(np, workload, seed: int, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": seed,
        "params": workload.params(),
    }


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sample."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def _report_lines(name: str, passes, setup_times, ratios) -> dict[str, tuple[float, str]]:
    """Every end-to-end figure of the workload, by name, with its unit."""
    med = statistics.median
    attempted = sum(p.attempted for p in passes)
    out = {
        "setup_s": (med(setup_times), "s"),
        "pass_ref": (med(ratios), "ref"),
        "pass_s": (med(p.seconds for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (sum(p.failed for p in passes) / attempted, "ratio"),
    }
    for stage in passes[0].stages:
        out[stage] = (med(p.stages[stage] for p in passes), "s")
    if name == "train":
        for key, value in passes[0].facts["rmse"].items():
            out[key] = (value, "cmd")
    if name == "live":
        rate = med(p.facts["distances"]["emitted"] / p.stages["stream_distances_s"]
                   for p in passes)
        out["stream_distances_frames_per_s"] = (rate, "1/s")
        for kind, qs in (("distances", (50, 99)), ("au", (50,))):
            lat = [t for p in passes for t in p.facts[f"{kind}_latencies_s"]]
            for q in qs:
                out[f"stream_{kind}_p{q}_us"] = (_pct(lat, q) * 1e6, "us")
            out[f"stream_{kind}_samples"] = (len(lat), "count")
    return out


def _run_untraced(workload, seconds: int, reference, spans, workloads):
    """Run passes with the reference timed around and inside each.

    The workload sets up before each of its first ``setup_repeats``
    passes, so set-up times sample more of the run.  Set-ups do not count
    against ``seconds``.  Inside a pass the reference runs before every
    ``every``-th call of the workload's probe function, on a pass clock
    that stands still meanwhile.  Returns the set-up times, the passes and, per
    pass, its wall time over the mean time of the reference runs of that
    pass and its edges.
    """
    setup_times: list[float] = []
    refs: list[float] = []
    paused = 0.0
    probing = False

    def sample() -> None:
        nonlocal paused
        t = time.perf_counter()
        refs.append(reference())
        paused += time.perf_counter() - t

    module, qual, every = workload.probe
    calls = itertools.count()

    def probe(fn, name):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if probing and next(calls) % every == 0:
                sample()
            return fn(*args, **kwargs)
        return probed

    workloads.clock = lambda: time.perf_counter() - paused
    passes, ratios = [], []
    busy = 0.0
    with spans.patched([(module, qual)], probe):
        while len(passes) < MIN_PASSES or busy < seconds:
            if len(setup_times) < workload.setup_repeats:
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            refs.clear()
            for _ in range(REFS_AT_EDGES):
                sample()
            probing = True
            passes.append(workload.run_pass())
            probing = False
            for _ in range(REFS_AT_EDGES):
                sample()
            ratios.append(passes[-1].seconds / statistics.fmean(refs))
            busy += time.perf_counter() - t0
    workloads.clock = time.perf_counter
    return setup_times, passes, ratios


def _run_traced(workload, seconds: int, spans, out_dir: Path):
    """Alternate traced and untraced passes; returns per-layer metrics."""
    errors = spans.check_self_time_arithmetic()
    setup_tracer = spans.Tracer()
    with spans.instrument(setup_tracer):
        workload.setup()
    traced, untraced = [], []  # (tracer, PassResult), PassResult
    t0 = time.perf_counter()
    while (len(traced) < MIN_TRACED_PASSES or not untraced
           or time.perf_counter() - t0 < seconds):
        if len(traced) < len(untraced):  # untraced first: it warms up
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                traced.append((tracer, workload.run_pass()))
        else:
            untraced.append(workload.run_pass())

    tracers = [t for t, _ in traced]
    for t in tracers[1:]:
        if t.calls != tracers[0].calls or t.counts != tracers[0].counts:
            errors.append("per-layer call counts differ between traced passes")
    self_times = [spans.self_times(t.spans) for t in tracers]
    setup_self = spans.self_times(setup_tracer.spans)
    metrics: dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        if name in SETUP_SPANS:
            metrics[f"{name}.calls"] = setup_tracer.calls[name]
            metrics[f"{name}.self_s"] = setup_self[name]
        else:
            metrics[f"{name}.calls"] = tracers[0].calls[name]
            metrics[f"{name}.self_s"] = statistics.median(s[name] for s in self_times)
    counts = tracers[0].counts
    metrics["dataset.ingest_openface_csv.rows"] = counts["dataset.ingest_openface_csv.rows"]
    metrics["learn.mlp_fit.epochs"] = counts["learn.mlp_fit.epochs"]
    points = counts["learn.grid_search.points"]
    metrics["learn.grid_search.diverged_frac"] = (
        counts["learn.grid_search.diverged"] / points if points else 0.0)
    first = traced[0][1]
    for key in ("frames_in", "held", "failed"):
        metrics[f"retarget.stream.{key}"] = sum(
            first.facts[k][key] for k in ("distances", "au") if k in first.facts)
    # the au stream never needs geometry: trace it alone to show that
    au_geometry_calls = 0
    if workload.name == "live":
        au_tracer = spans.Tracer()
        with spans.instrument(au_tracer):
            errors += workload.run_pass(kinds=("au",)).errors
        au_geometry_calls = sum(au_tracer.calls[n] for n in spans.SPAN_NAMES
                                if n.startswith("geometry."))
    metrics["geometry.calls_in_au_stream"] = au_geometry_calls
    traced_s = statistics.median(r.seconds for _, r in traced)
    untraced_s = statistics.median(r.seconds for r in untraced)
    print(f"traced pass_s = {traced_s!r} s over {len(traced)} passes")
    print(f"untraced pass_s = {untraced_s!r} s over {len(untraced)} passes")
    metrics["trace.overhead_s"] = traced_s - untraced_s

    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / f"spans-{workload.name}-seed{workload.seed}.json").open("w") as fh:
        json.dump([[s.name, s.start, s.end, s.parent] for s in tracers[-1].spans], fh)
    return metrics, [r for _, r in traced] + untraced, errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("record", "train", "live"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "headlearn" / "__init__.py").is_file():
        print(f"headlearn sources not found under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy as np
    import reference
    import spans
    import workloads

    out_dir = ROOT / ".bench_build" / "perfbench"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            values, passes, errors = _run_traced(workload, args.seconds, spans, out_dir)
            wanted = spec["per_layer"]
        else:
            setup_times, passes, ratios = _run_untraced(
                workload, args.seconds, reference.reference_s, spans, workloads)
            report = _report_lines(workload.name, passes, setup_times, ratios)
            for name, (value, unit) in report.items():
                print(f"{name} = {value!r} {unit}")
            values = {name: v for name, (v, _) in report.items()}
            errors = []
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("environment:", json.dumps(_environment(np, workload, args.seed, nproc)))
    for key, value in passes[0].facts.items():
        if not key.endswith("_latencies_s"):
            print(f"{key}: {json.dumps(value)}")
    digests = sorted({p.digest for p in passes})
    print("output sha256:", " ".join(digests))
    if len(digests) != 1:
        errors.append("outputs differ between passes at one seed")
    errors += [e for p in passes for e in p.errors]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    errors += [f"metric {name} was not measured" for name in missing]
    for e in dict.fromkeys(errors):
        print("CHECK FAILED:", e)

    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
