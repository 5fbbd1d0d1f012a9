"""Set-up, timed loop and metric reduction for one benchmark run.

One process, one thread, a closed loop: the next trial starts when the
previous one has finished.  ``gc.collect()`` runs between trials, outside the
timed region.  Set-up (import curvlab, then one untimed trial that builds the
jet tables and orbit caches) is repeated ``SETUP_REPEATS`` times by dropping
curvlab from ``sys.modules``, and ``setup_s`` is the ``SETUP_PCT``-th
percentile of those times.  The set-ups are spread evenly over the run,
because a shared host's speed drifts between two levels over seconds to
minutes: a high percentile of many spread set-ups lands in the slow level in
almost every run, where a median lands in whichever level held longest.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy

from tracing import NULL_TRACER, SPAN_LAYERS, LEAF_LAYERS, COUNTERS, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 16
SETUP_PCT = 90               # of 16: the second slowest
SETUP_INDEX = 10 ** 6          # trial index of the set-up model
_now = time.perf_counter

PER_LAYER = tuple(n + "_s" for n in SPAN_LAYERS + LEAF_LAYERS) + COUNTERS
_COUNT_METRICS = set(COUNTERS)


class SetupError(RuntimeError):
    """The set-up trial raised or missed a check; nothing was measured."""


def load_curvlab(src: Path) -> SimpleNamespace:
    """Import curvlab afresh from ``src``: every module, class-level cache
    and lru_cache starts empty, as in a new process."""
    for name in [m for m in sys.modules
                 if m == "curvlab" or m.startswith("curvlab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    pkg = importlib.import_module("curvlab")
    if Path(pkg.__file__).resolve().parent != (src / "curvlab").resolve():
        raise ImportError(f"curvlab was imported from {pkg.__file__}, "
                          f"not from {src}")
    mods = {m: importlib.import_module("curvlab." + m)
            for m in ("conformal", "geometry", "invariants", "jets", "models",
                      "polys", "scalars", "tensors")}
    return SimpleNamespace(numpy=numpy, **mods)


def setup(src: Path, wl, data):
    """Import curvlab afresh and run the set-up trial on ``data``; return
    (curvlab namespace, seconds).  Everything alive afterwards is frozen out
    of the cyclic collector, so ``gc.collect()`` between trials stays cheap."""
    gc.unfreeze()
    gc.collect()
    t0 = _now()
    cl = load_curvlab(src)
    checks = wl.run_trial(cl, data, NULL_TRACER)
    dt = _now() - t0
    failed = [c.name for c in checks if not c.passed]
    if failed:
        raise SetupError(f"set-up trial failed checks: {failed}")
    gc.collect()
    gc.freeze()
    return cl, dt


def _trial(cl, wl, data, trial_id, tracer):
    """One trial; returns (seconds, checks, error text, layer metrics)."""
    gc.collect()
    layers = None
    if tracer is not NULL_TRACER:
        tracer.begin_trial(trial_id)
    t0 = _now()
    try:
        checks, error = wl.run_trial(cl, data, tracer), None
    except Exception:                # a trial that raises counts as failed
        checks, error = [], traceback.format_exc()
    dt = _now() - t0
    if tracer is not NULL_TRACER:
        layers = tracer.end_trial()
    return dt, checks, error, layers


def _record(trial_id, traced, dt, checks, error, layers):
    passed = error is None and all(c.passed for c in checks)
    if error is not None:
        print(f"trial {trial_id} raised:\n{error}", file=sys.stderr)
    elif not passed:
        bad = [c for c in checks if not c.passed]
        print(f"trial {trial_id} failed: {bad}", file=sys.stderr)
    return {"trial": trial_id, "traced": traced, "seconds": dt,
            "passed": passed,
            "checks": [tuple(c) for c in checks], "layers": layers}


def measure(src: Path, wl, seed: int, seconds: float, trace: bool):
    """Closed loop for ``seconds`` of wall time, ``SETUP_REPEATS`` set-ups
    included and spread evenly over it; returns (records, loop seconds
    without set-ups, set-up seconds, tracer).  Untraced: one trial per
    model.  Traced: each model runs once untraced and once with the tracer
    installed, in alternating order, so ``trace.overhead`` compares like
    with like."""
    setup_data = wl.make_input(seed, SETUP_INDEX)
    tracer = Tracer() if trace else None
    records, setup_times = [], []
    busy, i = 0.0, 0
    start = _now()
    try:
        while i == 0 or _now() - start < seconds:  # at least one model
            due = len(setup_times) * seconds / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and _now() - start >= due:
                cl, dt = setup(src, wl, setup_data)
                setup_times.append(dt)
            t0 = _now()
            data = wl.make_input(seed, i)
            order = (False, True) if i % 2 == 0 else (True, False)
            for traced in (order if trace else (False,)):
                if traced:
                    with tracer.installed(cl):
                        r = _trial(cl, wl, data, i, tracer)
                else:
                    r = _trial(cl, wl, data, i, NULL_TRACER)
                records.append(_record(i, traced, *r))
            busy += _now() - t0
            i += 1
    finally:
        gc.unfreeze()
    return records, busy, setup_times, tracer


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: ceil(pct/100 * n)-th smallest value."""
    xs = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[k - 1]


def tail_percentile(n: int, wanted: int) -> int:
    """``wanted``, lowered until at least ten of ``n`` trials lie beyond it."""
    pct = wanted
    while pct > 50 and n - math.ceil(pct / 100 * n) < 10:
        pct -= 1
    return pct


def end_to_end(records, wall, setup_times, wl) -> tuple[dict, dict]:
    """The declared end-to-end metrics, and the side information.

    ``trial_s.p50`` and ``trials_per_s`` go to the side information: on a
    host whose speed drifts they spread more between runs than the largest
    bound a declared metric may have (see README.md)."""
    times = [r["seconds"] if r["passed"] else math.inf for r in records]
    pct = tail_percentile(len(times), wl.tail_pct)
    passed = sum(r["passed"] for r in records)
    metrics = {
        "trial_s.tail": (percentile(times, pct), "s"),
        "setup_s": (percentile(setup_times, SETUP_PCT), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"tail_percentile": pct,
            "trial_s.p50": statistics.median(times),
            "trials_per_s": passed / wall}
    return metrics, info


def per_layer(records) -> dict:
    """Median over traced trials of each layer's per-trial value."""
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    out = {}
    for name in PER_LAYER:
        values = [r["layers"][name] for r in traced]
        if name in _COUNT_METRICS:       # an observed count, never a mean
            out[name] = (statistics.median_low(values), "count")
        else:
            out[name] = (statistics.median(values), "s")
    margins = [math.log10(tol / res) for r in traced for _, _, res, tol
               in r["checks"] if res is not None and res > 0]
    out["report.margin_min"] = (min(margins) if margins else 0.0, "log10")
    out["trace.overhead"] = (
        statistics.median(r["seconds"] for r in traced)
        / statistics.median(r["seconds"] for r in untraced), "ratio")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(root: Path) -> dict:
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(root),
            "src_sha256": source_digest(root / "src")}


def source_digest(src: Path) -> str:
    """sha256 over the Python sources under ``src``, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from ``.git``; None when
    the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run(root: Path, workload: str, seed: int, seconds: float,
        trace: bool) -> dict:
    """One benchmark run; returns the result and its side information."""
    wl = WORKLOADS[workload]
    records, wall, setup_times, tracer = measure(root / "src", wl, seed,
                                                 seconds, trace)
    metrics, info = end_to_end(
        [r for r in records if not r["traced"]], wall, setup_times, wl)
    if trace:
        metrics = per_layer(records)
        del info["trials_per_s"]     # the loop also ran the traced trials
    failed = sum(not r["passed"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "loop_s": wall,
            "failed_ratio": failed / len(records),
            "setup_s_all": setup_times, **info, **environment(root)}
    return {"result": result, "meta": meta, "records": records,
            "spans": tracer.dump() if tracer else None}
