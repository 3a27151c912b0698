#!/usr/bin/env python
"""Perf-regression guard: fresh benchmark timings vs committed baselines.

Compares the timing keys that gate the pipeline's interactive speed —
serial characterization and full (no-fastpath) evaluation — between a
freshly generated ``BENCH_*.json`` and the committed baseline of the
same name.  Fails (exit 1) when a fresh timing is more than
``--factor`` (default 1.25, i.e. >25% slowdown) above the baseline.

Only ``params`` and ``timings_s`` are compared.  The ``host`` and
``provenance`` blocks (code revision, source digest, ``REPRO_*`` flags)
describe where a file came from; a fresh run always differs from its
baseline there, so they never skip or fail a comparison.

CI machines are not the machines the baselines were recorded on, so
the factor is deliberately generous: the guard catches order-of-
magnitude regressions (an accidentally disabled fastpath, a quadratic
loop), not single-digit-percent noise.  Set ``REPRO_PERF_GUARD_FACTOR``
or pass ``--factor`` to loosen it further on noisy runners.

Usage::

    python scripts/perf_guard.py \
        --baseline BENCH_characterize.json --fresh fresh_characterize.json \
        --baseline BENCH_evaluate.json     --fresh fresh_evaluate.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: benchmark name -> timing keys guarded (see cmd_perf in repro.cli)
GUARDED_KEYS = {
    "characterize": ("characterize_serial",),
    "evaluate": ("evaluate_full",),
    # kernel microbench scenarios: a fixed event mix, so wall time is
    # the inverse of events/second — the sub-millisecond uncontended
    # scenario is left unguarded (pure timer noise at that scale)
    "kernel": (
        "kernel_total",
        "kernel_timeout_chain",
        "kernel_request_release",
        "kernel_contended_rotation",
        "kernel_coupled_rotation",
        "kernel_fs_serve",
    ),
}

#: benchmark name -> (base timing, instrumented timing) pairs checked
#: *within* the fresh run: instrumented / base must stay under the
#: overhead factor (metrics collection must stay nearly free)
OVERHEAD_KEYS = {
    "evaluate": (("evaluate_full", "evaluate_full_metrics"),),
}


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def check(baseline_path: str, fresh_path: str, factor: float) -> list[str]:
    """Return a list of violation messages (empty = pass)."""
    if not Path(baseline_path).exists():
        print(f"perf-guard: no baseline {baseline_path} — skipping")
        return []
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    kind = fresh.get("benchmark", "")
    keys = GUARDED_KEYS.get(kind, ())
    if baseline.get("benchmark", "") != kind:
        print(
            f"perf-guard: {baseline_path} is a {baseline.get('benchmark')!r} "
            f"baseline but {fresh_path} is {kind!r} — skipping"
        )
        return []
    base_faults = baseline.get("params", {}).get("faults")
    fresh_faults = fresh.get("params", {}).get("faults")
    if base_faults != fresh_faults:
        # A run under fault injection measures degraded-mode behaviour
        # (rebuild contention, retransmit storms) — comparing it to a
        # healthy baseline (or vice versa) would flag the fault cost as
        # a regression.  Never compare across fault modes.
        print(
            f"perf-guard: fault schedules differ (baseline "
            f"{base_faults!r}, fresh {fresh_faults!r}) — skipping "
            f"{fresh_path}: fault-mode timings are never compared to "
            f"healthy baselines"
        )
        return []
    base_analytic = baseline.get("params", {}).get("analytic", False)
    fresh_analytic = fresh.get("params", {}).get("analytic", False)
    if base_analytic != fresh_analytic:
        # the analytic kernel mode trades calendar events for replay
        # arithmetic — its timings are a different regime, never
        # compared to exact-mode baselines
        print(
            f"perf-guard: analytic modes differ (baseline "
            f"{base_analytic!r}, fresh {fresh_analytic!r}) — skipping "
            f"{fresh_path}"
        )
        return []
    problems = []
    for key in keys:
        base = baseline.get("timings_s", {}).get(key)
        now = fresh.get("timings_s", {}).get(key)
        if base is None or now is None:
            print(f"perf-guard: {key}: missing in baseline or fresh run — skipping")
            continue
        ratio = now / base if base > 0 else float("inf")
        verdict = "FAIL" if ratio > factor else "ok"
        print(
            f"perf-guard: {key}: baseline {base:.3f}s fresh {now:.3f}s "
            f"(x{ratio:.2f}, limit x{factor:.2f}) {verdict}"
        )
        if ratio > factor:
            problems.append(
                f"{key}: {now:.3f}s is {ratio:.2f}x the committed {base:.3f}s "
                f"(limit {factor:.2f}x)"
            )
    return problems


def check_overhead(fresh_path: str, factor: float) -> list[str]:
    """Bound instrumentation overhead inside one fresh benchmark run.

    Both timings come from the same run on the same machine, so the
    factor can be much tighter than the cross-run guard — but not
    arbitrarily tight: even best-of-N evaluation timings carry ~±10%
    wall-clock noise on shared runners, which swamps the few-percent
    true cost of the sampler.  The default 1.10 catches a sampler
    regression to its pre-optimization cost (~1.17x measured) without
    tripping on timer noise; override with
    ``REPRO_METRICS_OVERHEAD_FACTOR``.
    """
    fresh = load(fresh_path)
    problems = []
    for base_key, inst_key in OVERHEAD_KEYS.get(fresh.get("benchmark", ""), ()):
        base = fresh.get("timings_s", {}).get(base_key)
        inst = fresh.get("timings_s", {}).get(inst_key)
        if base is None or inst is None:
            print(f"perf-guard: {inst_key}: missing in fresh run — skipping")
            continue
        ratio = inst / base if base > 0 else float("inf")
        verdict = "FAIL" if ratio > factor else "ok"
        print(
            f"perf-guard: {inst_key}: {inst:.3f}s vs {base_key} {base:.3f}s "
            f"(x{ratio:.3f}, limit x{factor:.2f}) {verdict}"
        )
        if ratio > factor:
            problems.append(
                f"{inst_key}: metrics collection costs {ratio:.3f}x the "
                f"uninstrumented {base_key} (limit {factor:.2f}x)"
            )
    return problems


def check_sanitize(fresh_path: str) -> list[str]:
    """Assert sanitize mode was OFF while the benchmark ran.

    The sanitizer must be strictly opt-in: a benchmark accidentally
    recorded under ``REPRO_SANITIZE=1`` would bake the instrumentation
    cost into the committed baselines and mask real regressions.  The
    disabled-mode hooks themselves are already covered by the regular
    ``evaluate_full`` regression check — they sit on the guarded hot
    path.
    """
    fresh = load(fresh_path)
    sanitize = fresh.get("params", {}).get("sanitize")
    if sanitize:
        print(f"perf-guard: {fresh_path}: recorded with sanitize mode ON — FAIL")
        return [f"{fresh_path}: benchmark ran with the sanitizer enabled"]
    print(f"perf-guard: {fresh_path}: sanitize mode off ok")
    return []


def profile_movers(
    baseline_path: str, fresh_path: str, top: int = 10
) -> None:
    """Attribute a gated regression to functions, not just a scenario.

    Diffs the committed vs fresh ``PROFILE_perf.json`` top-25 tables
    and prints the biggest cumulative-time movers.  Purely informative
    — the timing checks decide pass/fail; this tells the reader *where*
    the time went.  Functions present in only one table diff against
    zero (new hot code, or code that left the top-25).
    """
    for path in (baseline_path, fresh_path):
        if not Path(path).exists():
            print(f"perf-guard: no profile {path} — cannot attribute")
            return
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    if baseline.get("benchmark") != "profile" or fresh.get("benchmark") != "profile":
        print("perf-guard: profile files are not 'profile' benchmarks — cannot attribute")
        return
    base_rows = {r["function"]: r for r in baseline.get("top_cumulative", [])}
    fresh_rows = {r["function"]: r for r in fresh.get("top_cumulative", [])}
    base_reps = max(baseline.get("params", {}).get("profile_repeat", 1), 1)
    fresh_reps = max(fresh.get("params", {}).get("profile_repeat", 1), 1)
    movers = []
    for func in base_rows.keys() | fresh_rows.keys():
        # normalize per-run so differing --profile-repeat settings
        # between the committed and fresh profiles don't masquerade
        # as a regression of every function at once
        base_ct = base_rows.get(func, {}).get("cumtime_s", 0.0) / base_reps
        fresh_ct = fresh_rows.get(func, {}).get("cumtime_s", 0.0) / fresh_reps
        movers.append((fresh_ct - base_ct, base_ct, fresh_ct, func))
    movers.sort(key=lambda m: abs(m[0]), reverse=True)
    print(f"perf-guard: top cumtime movers ({baseline_path} -> {fresh_path}, per run):")
    for delta, base_ct, fresh_ct, func in movers[:top]:
        print(f"  {delta:+8.3f}s  {base_ct:7.3f}s -> {fresh_ct:7.3f}s  {func}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", action="append", default=[], help="committed BENCH_*.json"
    )
    parser.add_argument(
        "--fresh", action="append", default=[], help="freshly generated BENCH_*.json"
    )
    parser.add_argument(
        "--profile-baseline",
        help="committed PROFILE_perf.json, used to attribute a regression "
             "to its biggest cumtime movers",
    )
    parser.add_argument(
        "--profile-fresh",
        help="freshly generated PROFILE_perf.json to diff against "
             "--profile-baseline when a regression is detected",
    )
    parser.add_argument(
        "--check-sanitize",
        action="store_true",
        help="fail if a fresh benchmark was recorded with REPRO_SANITIZE on",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=float(os.environ.get("REPRO_PERF_GUARD_FACTOR", "1.25")),
        help="max allowed fresh/baseline timing ratio (default 1.25)",
    )
    parser.add_argument(
        "--overhead-factor",
        type=float,
        default=float(os.environ.get("REPRO_METRICS_OVERHEAD_FACTOR", "1.10")),
        help="max allowed instrumented/uninstrumented ratio within a "
             "fresh run (default 1.10: a few %% true sampler cost plus "
             "the ~±10%% timing noise floor of shared runners)",
    )
    args = parser.parse_args(argv)
    if len(args.baseline) != len(args.fresh):
        parser.error("--baseline and --fresh must be paired")
    problems: list[str] = []
    for base, fresh in zip(args.baseline, args.fresh):
        problems += check(base, fresh, args.factor)
    for fresh in args.fresh:
        problems += check_overhead(fresh, args.overhead_factor)
    if args.check_sanitize:
        for fresh in args.fresh:
            problems += check_sanitize(fresh)
    if problems:
        print("perf-guard: REGRESSION DETECTED", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        if args.profile_baseline and args.profile_fresh:
            profile_movers(args.profile_baseline, args.profile_fresh)
        return 1
    print("perf-guard: all guarded timings within limits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
