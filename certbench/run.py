"""coarselab certify benchmark.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones. The lines before it print every metric by name and unit, the
environment, fail_ratio and any failed item. Full results (and the spans of
a traced run) go to .certbench/out/ in the checkout.

One closed loop: one caller, one process, one Python thread; each item
waits for the previous one. The timed phase repeats passes over the
workload's items until --seconds have elapsed (always at least one pass).
All times are wall-clock seconds as measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".certbench", "out")
WORK_DIR = os.path.join(ROOT, ".certbench", "work")
SETUP_SAMPLES = 9
# COARSE_LAB_THREADS only acts through threadpoolctl, which may be absent,
# so the BLAS pool is sized here, before numpy loads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

# numpy loads only after the BLAS setting above
import numpy as np  # noqa: E402
import scipy  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "item_s.p50": "s", "item_s.p90": "s",
                    "peak_rss_mb": "MB"}
LAYERS = ("spaces", "covers", "transforms", "witnesses", "hyperbolic", "support",
          "corona", "jsonio", "cli")
# metric name -> span name, for the kernels ROADMAP times at three sizes
KERNELS = {
    "spaces.dist_row": "spaces.Space.dist_row",
    "spaces.dist_block": "spaces.Space.dist_block",
    "spaces.materialize": "spaces.Entourage.materialize",
    "spaces.compose": "spaces.Entourage.compose",
    "spaces.image": "spaces.Entourage.image",
    "covers.appetite_witness": "covers.appetite_witness",
    "covers.lebesgue_number": "covers.lebesgue_number",
    "covers.mesh": "covers.mesh",
    "transforms.interior": "transforms.interior",
    "transforms.family_disjoint_witness": "transforms.family_disjoint_witness",
}
SELF_TIMED = ("covers.multiplicity", "covers.cover_entourage", "transforms.colorize",
              "transforms.expand", "transforms.merge_union", "transforms.product_refine",
              "witnesses.cube_cover", "witnesses.tree_cover",
              "witnesses.simplex_lower_bound_check", "hyperbolic.sphere_cover_lift",
              "hyperbolic.check_contraction", "support.check_calculus",
              "corona.corona_dim_cover", "corona.roundtrip_bounds", "cli.run")
COUNTED = {  # metric -> (span name, what the span's count field holds)
    "spaces.dist_row.calls": ("spaces.Space.dist_row", "calls"),
    "spaces.dist_row.distinct_ratio": ("spaces.Space.dist_row", "ratio"),
    "spaces.dist_block.calls": ("spaces.Space.dist_block", "calls"),
    "spaces.dist_block.entries": ("spaces.Space.dist_block", "count"),
    "spaces.materialize.pairs": ("spaces.Entourage.materialize", "count"),
    "spaces.compose.pairs_out": ("spaces.Entourage.compose", "count"),
    "spaces.image.calls": ("spaces.Entourage.image", "calls"),
    "covers.cover_entourage.pairs": ("covers.cover_entourage", "count"),
    "transforms.interior.calls": ("transforms.interior", "calls"),
    "support.check_calculus.calls": ("support.check_calculus", "calls"),
}
RUNG_NAMES = ("small", "mid", "large")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.errors": "count"})
    for name in list(KERNELS) + list(SELF_TIMED):
        units[f"{name}.self_s"] = "s"
    for name, (_, kind) in COUNTED.items():
        units[name] = "ratio" if kind == "ratio" else "count"
    for part in ("load", "dump"):
        units[f"jsonio.{part}.self_s"] = "s"
        units[f"jsonio.{part}.bytes"] = "B"
    for name in KERNELS:
        for rung in RUNG_NAMES:
            units[f"{name}.self_s.{rung}"] = "s"
        units[f"{name}.exponent"] = "log/log"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Timed phase
# ---------------------------------------------------------------------------


def run_pass(items, records: list, pass_no: int, mutate=None, tracer=None) -> float:
    """Certify and check every item once; returns the pass's wall time."""
    gc.collect()
    started = time.perf_counter()
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.item_id = idx
        t0 = time.perf_counter()
        try:
            outputs = item.certify()
        except Exception as exc:  # a raising item is a failed item, not a crash
            outputs, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        seconds = time.perf_counter() - t0
        if error is None:
            try:
                problems, dig = item.check(outputs, mutate)
            except Exception as exc:
                problems, dig = [f"check raised {type(exc).__name__}: {exc}"], None
        else:
            problems, dig = [error], None
        records.append({"item": item.id, "index": idx, "pass": pass_no,
                        "traced": tracer is not None, "seconds": seconds,
                        "problems": problems, "digest": dig})
    return time.perf_counter() - started


def _setup_time(workload: str, seed: int, size: str, target: str) -> float:
    """Wall time of a fresh process that imports coarselab, draws the
    inputs and writes the JSON files into target: what every CLI invocation
    pays.

    The child reports the time from the parent's clock reading just before
    it was started (CLOCK_MONOTONIC is shared by all processes) to the end
    of its set-up, because a wait with a timeout polls only every 50 ms."""
    os.makedirs(target)
    started = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--size", size, "--setup-only", target,
                           "--started", repr(started)],
                          check=True, stdout=subprocess.PIPE, text=True, timeout=120)
    return float(proc.stdout.split()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------


def layer_metrics(tracer, items, traced_passes: int, overhead: float) -> dict:
    cols = tracer.columns()
    span_names = np.array(tracer.names)[cols["name"]]
    per = float(traced_passes)
    out = {}

    def select(*wanted):
        return np.isin(span_names, list(wanted))

    for layer in LAYERS:
        mask = np.char.startswith(span_names, layer + ".")
        out[f"{layer}.calls"] = int(mask.sum()) / per
        out[f"{layer}.self_s"] = float(cols["self"][mask].sum()) / per
        out[f"{layer}.errors"] = int(cols["error"][mask].sum()) / per
    for metric, span in list(KERNELS.items()) + [(s, s) for s in SELF_TIMED]:
        out[f"{metric}.self_s"] = float(cols["self"][select(span)].sum()) / per
    for metric, (span, kind) in COUNTED.items():
        mask = select(span)
        calls = int(mask.sum())
        if kind == "calls":
            out[metric] = calls / per
        elif kind == "count":
            out[metric] = int(cols["count"][mask].sum()) / per
        else:
            out[metric] = int(cols["count"][mask].sum()) / calls if calls else 0.0
    jsonio = [n for n in tracer.names if n.startswith("jsonio.")]
    for part, io_span, prefix in (("load", "jsonio.read_json", "jsonio.load_"),
                                  ("dump", "jsonio.write_json", "jsonio.dump_")):
        group = [io_span] + [n for n in jsonio if n.startswith(prefix)]
        out[f"jsonio.{part}.self_s"] = float(cols["self"][select(*group)].sum()) / per
        out[f"jsonio.{part}.bytes"] = int(cols["count"][select(io_span)].sum()) / per
    for metric, span in KERNELS.items():
        sizes, secs = [], []
        for rung in RUNG_NAMES:
            idx = [i for i, item in enumerate(items) if item.rung == rung]
            value = 0.0
            if idx:
                mask = select(span) & np.isin(cols["item"], idx)
                value = float(cols["self"][mask].sum()) / (per * len(idx))
                sizes.append(statistics.mean(items[i].points for i in idx))
                secs.append(value)
            out[f"{metric}.self_s.{rung}"] = value
        # 0 where the kernel does not run at every rung, or off grid-ladder
        fit = len(secs) == 3 and min(secs) > 0
        out[f"{metric}.exponent"] = (float(np.polyfit(np.log(sizes), np.log(secs), 1)[0])
                                     if fit else 0.0)
    out["trace.overhead_ratio"] = overhead
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _reference_digests(workload: str, seed: int):
    path = os.path.join(HERE, "reference_digests.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            mutate=None) -> dict:
    """Set up, run the timed phase and compute the metrics."""
    from tracer import Tracer
    from workloads import WORKLOADS

    prepare = WORKLOADS[workload]
    workdir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        items = prepare(seed, workdir, size)
        records, plain, traced, setup = [], [], [], []
        tracer = Tracer() if trace else None

        def add_setup():
            setup.append(_setup_time(workload, seed, size,
                                     os.path.join(workdir, f"setup-{len(setup)}")))

        started = time.perf_counter()
        while True:
            # set-ups alternate with untraced passes, so that their samples
            # spread over the whole run and not over one spell of host speed
            if not trace:
                add_setup()
            plain.append(run_pass(items, records, len(plain) + len(traced), mutate))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(run_pass(items, records, len(plain) + len(traced), mutate,
                                           tracer))
                finally:
                    tracer.uninstall()
            if time.perf_counter() - started >= seconds:
                break
        while not trace and len(setup) < SETUP_SAMPLES:
            add_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed}
    if trace:
        overhead = statistics.median(traced) / statistics.median(plain)
        result["metrics"] = layer_metrics(tracer, items, len(traced), overhead)
        units = per_layer_units()
    else:
        times = [r["seconds"] for r in records]
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(plain),
            "item_s.p50": statistics.median(times),
            "item_s.p90": percentile(times, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}

    first = {r["item"]: r["digest"] for r in records if r["pass"] == 0}
    reference = _reference_digests(workload, seed) if size == "full" else None
    result["info"] = {
        "workload": workload, "seed": seed, "size": size, "env": environment(),
        "fail_ratio": failed / len(records), "item_samples": len(records),
        "passes": {"untraced": plain, "traced": traced}, "setup_samples_s": setup,
        "items": [{k: r[k] for k in ("item", "pass", "traced", "seconds")}
                  for r in records],
        "failures": [r for r in records if r["problems"]][:20],
        "digests": first,
        "digests_changed": (None if reference is None else
                            sorted(k for k, v in first.items() if reference.get(k) != v)),
        "wait": "none: one closed-loop caller on one Python thread, no queue",
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    return result


def _print_report(result: dict) -> None:
    info = result["info"]
    print(f"workload {info['workload']} seed {info['seed']} size {info['size']}")
    print("env " + json.dumps(info["env"], sort_keys=True))
    print(f"items attempted {result['attempted']} failed {result['failed']} "
          f"fail_ratio {info['fail_ratio']:.6g} (failed/attempted); "
          f"item samples {info['item_samples']}")
    passes = info["passes"]
    print(f"passes untraced {len(passes['untraced'])} traced {len(passes['traced'])}")
    for rec in info["failures"]:
        print(f"FAILED {rec['item']} pass {rec['pass']}: {'; '.join(rec['problems'][:3])}")
    changed = info["digests_changed"]
    if changed is None:
        print("digests: no reference for this seed")
    else:
        print(f"digests changed since the reference: {len(changed)} {changed}")
    print(f"wait time: {info['wait']}")
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["grid-ladder", "corona-band", "small-many"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: the self-test's reduced inputs")
    p.add_argument("--setup-only", metavar="DIR",
                   help="only draw the inputs into DIR (used to time set-up)")
    p.add_argument("--started", type=float,
                   help="with --setup-only: print the seconds since this time.monotonic()")
    args = p.parse_args(argv)
    src = os.path.join(ROOT, "src")
    try:
        import coarselab
    except ImportError as exc:
        print(f"cannot import coarselab from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(coarselab.__file__).startswith(src + os.sep):
        print(f"coarselab was imported from {coarselab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed, args.setup_only, args.size)
        if args.started is not None:
            print(time.monotonic() - args.started)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    _print_report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
