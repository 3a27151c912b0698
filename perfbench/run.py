"""Layer-attributed benchmark of the methodology pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload btio-eval --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run instead.  The exit code is
non-zero when any simulated output differs from ``references.json``.
See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("characterize-cold", "btio-eval", "sweep-smoke")

#: (name, unit) of the metrics printed with ``--trace 0``
END_TO_END = (("pass_cal", "cal"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: fresh-process set-ups timed per run; setup_s is their median
SETUP_SAMPLES = 5

#: share of profiled self-time that must land on a named layer
MIN_ATTRIBUTED = 0.95


def per_layer_metrics() -> tuple:
    """(name, unit) of the metrics printed with ``--trace 1``."""
    from perfbench.layers import LAYERS

    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    out += [
        ("simengine.events", "count"),
        ("simengine.events_per_s", "1/s"),
        ("storage.cache.lookups", "count"),
        ("storage.cache.hit_ratio", "fraction"),
        ("storage.cache.evictions", "count"),
        ("storage.localfs.ops", "count"),
        ("storage.localfs.flush_runs", "count"),
        ("storage.nfs.rpcs", "count"),
        ("hardware.disk.ops", "count"),
        ("hardware.disk.seeks", "count"),
        ("hardware.disk.busy_sim_s", "s"),
        ("hardware.network.messages", "count"),
        ("hardware.network.busy_sim_s", "s"),
        ("mpi.collective_ops", "count"),
        ("mpi.independent_ops", "count"),
        ("core.replay.occurrences", "count"),
        ("core.replay.extrapolated_fraction", "fraction"),
        ("core.replay.fallback_phases", "count"),
        ("core.characterize.iolib_s", "s"),
        ("core.characterize.nfs_s", "s"),
        ("core.characterize.localfs_s", "s"),
        ("clusters.build_s", "s"),
        ("core.evaluation.profile_s", "s"),
        ("core.tablecache.store_s", "s"),
        ("core.tablecache.load_s", "s"),
        ("sweep.plan_s", "s"),
        ("sweep.verify_s", "s"),
        ("sweep.retries", "count"),
        ("sweep.timeouts", "count"),
        ("sweep.crashes", "count"),
        ("sweep.quarantined", "count"),
        ("trace.attributed_fraction", "fraction"),
        ("trace.overhead", "ratio"),
    ]
    return tuple(out)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (selects sweep-smoke's fuzzed specs)")
    p.add_argument("--seconds", type=int, default=30,
                   help="measure passes for this long (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, print per-layer metrics")
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: reduced inputs for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # one timed set-up sample
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def refuse_modes() -> None:
    """Only the default kernel mode is measured: no REPRO_* overrides."""
    flags = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if flags:
        sys.exit(f"perfbench: refusing to run with {', '.join(flags)} set; "
                 "numbers recorded under a non-default mode would be mislabelled")


def prepare_imports() -> None:
    if not (SRC / "repro").is_dir():
        sys.exit(f"perfbench: no src/repro next to {HERE.name}/; "
                 "run from the root of a full checkout")
    # the script directory would shadow nothing useful; import the
    # benchmark as a package and the program from the checkout's source
    sys.path[:1] = [str(SRC), str(ROOT)]


def provenance(args, wl) -> dict:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        cpus_usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus_usable = os.cpu_count()
    return {
        "workload": wl.name,
        "seed": args.seed,
        "size": args.size,
        "git_rev": git_revision(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": cpus_usable,
        "inputs": wl.inputs(),
    }


def git_revision():
    """HEAD of the checkout's own ``.git``, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def time_setups(args) -> list[float]:
    """Wall time of fresh processes that import, set up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: set-up of {args.workload} failed")
    return samples


def timed_passes(wl, spans, seconds: float) -> int:
    """Back-to-back passes until ``seconds`` have elapsed (at least two)."""
    passes = 0
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < seconds:
        wl.run_pass(spans)
        passes += 1
    return passes


def pass_cost(units: dict) -> tuple[float, float]:
    """(calibration units, seconds) of one pass, from its units' medians.

    Each unit's cost is the median over the run's passes of its wall
    time divided by the calibration kernel's time beside it (see
    ``calibration.py``); its wall time is the median of the plain wall
    times.  A pass costs the sum over its units.
    """
    cal = sum(median(wall / k for wall, k in samples) for samples in units.values())
    wall = sum(median(wall for wall, _ in samples) for samples in units.values())
    return cal, wall


def profiled_pass(wl) -> tuple[float, dict, int]:
    """One pass under cProfile: wall, per-layer attribution, calendar entries."""
    import cProfile
    import gc
    import pstats

    from perfbench.layers import attribute
    from perfbench.spans import CalendarCounter, Spans

    # worker processes forked by the sweep would inherit the profiler
    # and run slower without reporting anything; switch it off there
    os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
    # earlier passes leave suspended simulation processes behind; when
    # the collector closes them mid-profile their generators count as
    # calls, so finalize them first to keep call counts reproducible
    gc.collect()
    # the calibration kernel is the benchmark's, not the program's
    wl.calibrate = False
    counter = CalendarCounter()
    prof = cProfile.Profile()
    try:
        t0 = time.perf_counter()
        prof.enable()
        try:
            wl.run_pass(Spans(False))
        finally:
            prof.disable()
        wall = time.perf_counter() - t0
    finally:
        counter.close()
    return wall, attribute(pstats.Stats(prof).stats, SRC / "repro"), counter.events


def run_one(args) -> int:
    refs = json.loads((HERE / "references.json").read_text())[args.size][args.workload]
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    # anything the program puts in a temporary directory stays in the checkout
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        return measure(args, refs, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, refs: dict, tmp: Path) -> int:
    from perfbench.spans import Spans
    from perfbench.workloads import WORKLOADS

    spans = Spans(bool(args.trace))
    wl = WORKLOADS[args.workload](args.size, args.seed, refs, ROOT, tmp)
    if args.setup_only:
        wl.setup(spans)
        return 0

    with spans.span("setup"):
        wl.setup(spans)
    # a traced run spends half its window on timed passes; the rest goes
    # to the profiled pass and the calls that read the sim counters
    passes = timed_passes(wl, spans, args.seconds / 2 if args.trace else args.seconds)
    pass_cal, pass_wall = pass_cost(wl.units)
    setups = []
    if not args.trace:
        # read before the set-up samples: their processes are the
        # benchmark's own, and would otherwise be the largest child
        peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        setups = time_setups(args)

    artefact = {"unit_wall_and_calibration_s": wl.units, "setup_wall_s": setups}
    if args.trace:
        from perfbench.layers import LAYERS

        prof_wall, layers, events = profiled_pass(wl)
        units = dict(per_layer_metrics())
        metrics = dict.fromkeys(units, 0)
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layers["self_s"][layer]
            metrics[f"{layer}.calls"] = layers["calls"][layer]
        metrics["simengine.events"] = events
        metrics["simengine.events_per_s"] = events / pass_wall
        metrics.update(wl.layer_metrics(spans))
        metrics["trace.attributed_fraction"] = layers["attributed_fraction"]
        metrics["trace.overhead"] = prof_wall / pass_wall
        artefact.update(
            profiled_pass_wall_s=prof_wall,
            profiled_self_s=layers["total_s"],
            spans=spans.records,
            span_summary=spans.summary(),
        )
    else:
        metrics = {
            "pass_cal": pass_cal,
            "setup_s": median(setups),
            "peak_rss_mb": peak_kib / 1024.0,  # ru_maxrss is in KiB on Linux
        }
        units = dict(END_TO_END)

    out = wl.outcome
    checks_ok = out.failed == 0
    if args.trace and metrics["trace.attributed_fraction"] < MIN_ATTRIBUTED:
        print(f"perfbench: only {metrics['trace.attributed_fraction']:.3f} of profiled "
              f"self-time is attributed to named layers (need {MIN_ATTRIBUTED})",
              file=sys.stderr)
        checks_ok = False

    prov = provenance(args, wl)
    artefact.update(provenance=prov, metrics=metrics)
    path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(artefact, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {wl.name} seed={args.seed} size={args.size} trace={args.trace}")
    print(f"  pass_cal     {pass_cal:.2f} cal  sum over {len(wl.units)} units of the "
          f"median of {passes} passes, each ÷ the calibration kernel beside it")
    print(f"  pass wall    {pass_wall:.4f} s  same, plain wall time (moves with the host)")
    if not args.trace:
        print(f"  setup_s      {metrics['setup_s']:.4f} s  median of {len(setups)} "
              "fresh-process set-ups")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  process + children")
    print(f"  error_rate   {out.failed / max(out.attempted, 1):.4f} fraction  "
          f"{out.failed} of {out.attempted} units failed")
    print(f"  provenance   {json.dumps(prov, sort_keys=True)}")
    print(f"  artefact     {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks_ok,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if checks_ok else 1


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    rows = {}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1]) if lines else None
    print(f"{'workload':<18}{'pass [cal]':>12}{'setup_s [s]':>12}{'peak_rss [MB]':>15}"
          f"{'error_rate':>12}")
    for name, row in rows.items():
        if row is None:
            print(f"{name:<18}  no result")
            continue
        m = {k: v["value"] for k, v in row["metrics"].items()}
        cells = "".join(
            f"{m[k]:>{w}.4f}" if k in m else f"{'-':>{w}}"
            for k, w in (("pass_cal", 12), ("setup_s", 12), ("peak_rss_mb", 15))
        )
        print(f"{name:<18}{cells}{row['failed'] / row['attempted']:>12.4f}")
    done = [r for r in rows.values() if r is not None]
    print(json.dumps({
        "correct": code == 0 and len(done) == len(rows) and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done) or 1,
        "failed": sum(r["failed"] for r in done) + len(rows) - len(done),
        "metrics": {
            f"{name}.{k}": v for name, r in rows.items() if r for k, v in r["metrics"].items()
        },
    }))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    refuse_modes()
    prepare_imports()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
