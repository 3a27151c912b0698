"""The benchmark's three workloads, driven through public entry points.

Each workload has a set-up (imports, configuration builds and, for
``btio-eval``, the quick characterization tables it scores against)
and a fixed-size *pass* that the driver repeats back to back.
Every simulated output of a pass is checked against the recorded
references in ``references.json``; a unit that raises or differs is
counted as failed.  Why each workload exists is written down in
``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from perfbench.calibration import time_kernel
from repro.clusters import aohyper_config
from repro.clusters.builder import build_system
from repro.core import (
    LEVELS,
    Methodology,
    TableCache,
    characterize_app,
    characterize_level,
    generate_used_percentage,
)
from repro.core.characterize import DEFAULT_BLOCKS
from repro.core.evaluation import used_tables_equal
from repro.fingerprint import fingerprint, workload_fingerprint
from repro.simengine import Environment
from repro.storage.base import GiB, KiB, MiB
from repro.sweep import (
    ResultStore,
    build_plan,
    char_params,
    collect_faults,
    collect_workloads,
    run_sweep,
    verify_run,
)
from repro.tracing import IOTracer
from repro.workloads.apps import BTIOApplication
from repro.workloads.btio import BTIOConfig

__all__ = ["WORKLOADS", "Outcome", "report_digest"]

CONFIGS = ("jbod", "raid1", "raid5")

#: the MUST-PRESERVE characterization recipe: blocks 32K/256K/2M/16M,
#: IOR 8 ranks x 2 GiB, default IOzone file size
COLD_RECIPE = {
    "block_sizes": DEFAULT_BLOCKS[::3],
    "char_file_bytes": None,
    "ior_nprocs": 8,
    "ior_file_bytes": 2 * GiB,
}
#: the quick recipe (``--quick`` in the CLI): btio-eval's tables, the
#: sweep's characterization, and the reduced-size cold run
QUICK_RECIPE = {
    "block_sizes": (256 * KiB, 1 * MiB),
    "char_file_bytes": 8 * MiB,
    "ior_nprocs": 8,
    "ior_file_bytes": 64 * MiB,
}


@dataclass
class Outcome:
    """Units attempted and failed so far."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def report_digest(report) -> str:
    """Digest of an ``EvaluationReport``'s simulated fields (no ``wall_s``)."""
    return fingerprint(
        report.config_name,
        report.execution_time_s,
        report.io_time_s,
        report.bytes_written,
        report.bytes_read,
        report.used,
        report.profile,
        report.replay,
    )


def _table_digest(table) -> str:
    return hashlib.sha256(table.to_csv().encode()).hexdigest()[:16]


def _fail(unit: str, exc: BaseException) -> None:
    print(f"perfbench: {unit} raised:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


class Workload:
    """One named workload: ``setup`` once, ``run_pass`` repeatedly."""

    name = ""

    def __init__(self, size: str, seed: int, refs: dict, root: Path, work: Path):
        self.size = size
        self.seed = seed
        self.refs = refs
        self.root = root
        self.work = work
        self.outcome = Outcome()
        self.configs = {}
        #: per unit name, over all passes: (wall time, calibration time)
        self.units: dict[str, list[tuple[float, float]]] = {}
        #: time the calibration kernel around each unit (off while profiling)
        self.calibrate = True

    @contextmanager
    def timed(self, unit: str):
        """Record the block's wall time beside the calibration kernel's.

        The kernel runs right before and right after the block; the mean
        of the two is the host's speed while the block ran.
        """
        before = time_kernel() if self.calibrate else 0.0
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            if self.calibrate:
                cal = (before + time_kernel()) / 2
                self.units.setdefault(unit, []).append((wall, cal))

    # -- correctness ---------------------------------------------------
    def check(self, unit: str, observed: str) -> bool:
        expected = self.refs.get(unit)
        if expected is None:
            print(f"perfbench: no reference for {self.name} {unit} "
                  f"(observed {observed})", file=sys.stderr)
            return False
        if expected != observed:
            print(f"perfbench: {self.name} {unit}: output {observed} differs "
                  f"from reference {expected}", file=sys.stderr)
            return False
        return True

    # -- layer timings shared by every workload (traced run only) -------
    def _time_builds(self, spans, per_config: int) -> float:
        """Time ``per_config`` fresh ``build_system`` calls per config."""
        n = per_config * len(self.configs)
        for _ in range(per_config):
            for cfg in self.configs.values():
                with spans.span("build_system"):
                    build_system(Environment(), cfg)
        return sum(spans.durations("build_system")[-n:])

    def _time_cache(self, spans, m: Methodology) -> dict:
        """Store and reload ``m``'s tables through a fresh ``TableCache``."""
        root = Path(tempfile.mkdtemp(prefix="tablecache-", dir=self.work))
        try:
            cache = TableCache(root)
            keys = {name: m.cache_key(name, cache) for name in m.tables}
            for name, key in keys.items():
                with spans.span("TableCache.store"):
                    cache.store(key, name, m.tables[name])
            loaded = {}
            for name, key in keys.items():
                with spans.span("TableCache.load"):
                    loaded[name] = cache.load(key, name, m.levels)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        for name, tables in loaded.items():
            same = tables is not None and all(
                tables[lv].to_csv() == m.tables[name][lv].to_csv() for lv in m.levels
            )
            if not same:
                print(f"perfbench: {self.name}: cached tables of {name} "
                      "differ after a store/load round trip", file=sys.stderr)
            self.outcome.add(same)
        return {
            "core.tablecache.store_s": sum(spans.durations("TableCache.store")),
            "core.tablecache.load_s": sum(spans.durations("TableCache.load")),
        }

    # -- interface -----------------------------------------------------
    def setup(self, spans) -> None:
        raise NotImplementedError

    def run_pass(self, spans) -> None:
        raise NotImplementedError

    def layer_metrics(self, spans) -> dict:
        """Per-layer numbers beyond the profile, from the traced run."""
        raise NotImplementedError

    def inputs(self) -> dict:
        """``repro.fingerprint`` of every input the workload runs on."""
        raise NotImplementedError


class CharacterizeCold(Workload):
    """Phase 1, serial, no cache, jbod/raid1/raid5 x iolib/nfs/localfs."""

    name = "characterize-cold"

    def setup(self, spans) -> None:
        self.recipe = COLD_RECIPE if self.size == "full" else QUICK_RECIPE
        self.configs = {name: aohyper_config(name) for name in CONFIGS}
        for name, cfg in self.configs.items():
            with spans.span("build_system"):
                build_system(Environment(), cfg)
        self.tables: dict = {}

    def run_pass(self, spans) -> None:
        r = self.recipe
        for name, cfg in self.configs.items():
            for level in LEVELS:
                unit = f"{name}/{level}"
                try:
                    with self.timed(unit), spans.span(f"characterize_level:{level}"):
                        table = characterize_level(
                            cfg, level, r["block_sizes"], r["char_file_bytes"],
                            r["ior_nprocs"], r["ior_file_bytes"],
                        )
                except Exception as exc:
                    _fail(unit, exc)
                    self.outcome.add(False)
                    continue
                self.tables.setdefault(name, {})[level] = table
                self.outcome.add(self.check(unit, _table_digest(table)))

    def layer_metrics(self, spans) -> dict:
        out = {}
        for level in LEVELS:
            # one span per config per pass: sum each pass, median over passes
            d = spans.durations(f"characterize_level:{level}")
            n = len(self.configs)
            per_pass = [sum(d[i:i + n]) for i in range(0, len(d) - n + 1, n)]
            out[f"core.characterize.{level}_s"] = median(per_pass) if per_pass else 0.0
        out["clusters.build_s"] = self._time_builds(spans, len(LEVELS))
        m = Methodology(self.configs, **self.recipe)
        m.tables = self.tables
        out.update(self._time_cache(spans, m))
        return out

    def inputs(self) -> dict:
        return {
            "configs": {n: fingerprint(c) for n, c in self.configs.items()},
            "recipe": fingerprint(self.recipe),
        }


class BTIOEval(Workload):
    """Phase 3 of BT-IO on jbod/raid1/raid5, default settings."""

    name = "btio-eval"

    def make_app(self):
        if self.size == "full":
            return BTIOApplication(BTIOConfig(clazz="A", nprocs=16, subtype="full"))
        return BTIOApplication(BTIOConfig(clazz="W", nprocs=4, subtype="full"))

    def setup(self, spans) -> None:
        self.configs = {name: aohyper_config(name) for name in CONFIGS}
        self.app = self.make_app()
        self.m = Methodology(self.configs, **QUICK_RECIPE)
        with spans.span("Methodology.characterize"):
            self.m.characterize(n_jobs=1)

    def run_pass(self, spans) -> None:
        for name in self.configs:
            try:
                with self.timed(name), spans.span("Methodology.evaluate"):
                    report = self.m.evaluate(self.app, names=[name], n_jobs=1)[name]
            except Exception as exc:
                _fail(name, exc)
                self.outcome.add(False)
                continue
            self.outcome.add(self.check(name, report_digest(report)))

    def layer_metrics(self, spans) -> dict:
        counters: dict = {}
        occurrences = extrapolated = fallback = 0
        reports = self.m.evaluate(self.app, n_jobs=1, instrument=True, keep_events=True)
        for name, rep in reports.items():
            # instrumentation must not move the simulation
            self.outcome.add(self.check(name, report_digest(rep)))
            for level, values in rep.metrics["counters"].items():
                bucket = counters.setdefault(level, {})
                for key, v in values.items():
                    bucket[key] = bucket.get(key, 0) + v
            if rep.replay is not None:
                occurrences += rep.replay.total
                extrapolated += rep.replay.extrapolated
                fallback += rep.replay.fallback_phases
            tracer = IOTracer(world_size=rep.profile.nprocs)
            for event in rep.events:
                tracer.record(event.rank, event)
            with spans.span("characterize_app"):
                profile = characterize_app(tracer)
            with spans.span("generate_used_percentage"):
                used = generate_used_percentage(name, profile, self.m.tables[name])
            same = fingerprint(profile) == fingerprint(rep.profile) and used_tables_equal(
                used, rep.used
            )
            if not same:
                print(f"perfbench: {self.name} {name}: re-profiling the traced "
                      "events does not reproduce the report", file=sys.stderr)
            self.outcome.add(same)

        def c(level: str, key: str) -> float:
            return counters.get(level, {}).get(key, 0)

        hits, misses = c("cache", "hits"), c("cache", "misses")
        out = {
            "storage.cache.lookups": hits + misses,
            "storage.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "storage.cache.evictions": c("cache", "evictions"),
            "storage.localfs.ops": c("localfs", "reads") + c("localfs", "writes"),
            "storage.localfs.flush_runs": c("localfs", "flush_runs"),
            "storage.nfs.rpcs": c("nfs", "rpcs"),
            "hardware.disk.ops": c("disk", "reads") + c("disk", "writes"),
            "hardware.disk.seeks": c("disk", "seeks"),
            "hardware.disk.busy_sim_s": c("disk", "busy_s"),
            "hardware.network.messages": c("network", "messages"),
            "hardware.network.busy_sim_s": c("network", "busy_s"),
            "mpi.collective_ops": c("iolib", "collective_ops"),
            "mpi.independent_ops": c("iolib", "independent_ops"),
            "core.replay.occurrences": occurrences,
            "core.replay.extrapolated_fraction": (
                extrapolated / occurrences if occurrences else 0.0
            ),
            "core.replay.fallback_phases": fallback,
            "core.evaluation.profile_s": sum(
                spans.durations("characterize_app")
                + spans.durations("generate_used_percentage")
            ),
            "clusters.build_s": self._time_builds(spans, 1),
        }
        out.update(self._time_cache(spans, self.m))
        return out

    def inputs(self) -> dict:
        return {
            "configs": {n: fingerprint(c) for n, c in self.configs.items()},
            "app": workload_fingerprint(self.app),
            "recipe": fingerprint(QUICK_RECIPE),
        }


class SweepSmoke(Workload):
    """A 30-task crash-safe sweep: process pool, WAL, faults, table cache."""

    name = "sweep-smoke"
    N_JOBS = 2

    def setup(self, spans) -> None:
        names = CONFIGS if self.size == "full" else CONFIGS[:1]
        self.configs = {name: aohyper_config(name) for name in names}
        # seed 0 draws fuzz seeds 0, 1, 2: the checked-in examples/fuzz corpus
        fuzz_seeds = [3 * self.seed + i for i in range(3)]
        self.workloads = collect_workloads(
            named=["btio:W:4:full", "madbench:2:4"], fuzz_seeds=fuzz_seeds
        )
        self.faults = collect_faults(
            ["none", str(self.root / "examples" / "faults_smoke.json")]
        )
        self.char = char_params(**QUICK_RECIPE)
        # references are keyed by task fingerprint: the named workloads'
        # tasks are the same for every seed, the fuzzed ones of seed 0 are
        # recorded, and the first pass fills in those of any other seed
        self.refs = dict(self.refs)
        self.runner = {"retries": 0, "timeouts": 0, "crashes": 0, "quarantined": 0}

    def run_pass(self, spans) -> None:
        rundir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work))
        try:
            with self.timed("sweep"):
                self._sweep(spans, rundir / "run")
        finally:
            shutil.rmtree(rundir, ignore_errors=True)

    def plan(self) -> list:
        return build_plan(list(self.configs), self.workloads, self.faults, ["exact"], self.char)

    def _sweep(self, spans, rundir: Path) -> None:
        try:
            with spans.span("build_plan"):
                tasks = self.plan()
            with spans.span("run_sweep"):
                out = run_sweep(rundir, tasks, {"n_jobs": self.N_JOBS}, fsync=True)
            with spans.span("verify_run"):
                with ResultStore(rundir) as store:
                    integrity = verify_run(store, store.read_manifest())
                    records = dict(store.results)
        except Exception as exc:
            _fail("sweep", exc)
            self.outcome.add(False)
            return
        for key in self.runner:
            self.runner[key] += out.report["runner"][key]
        if not integrity["ok"] or out.exit_code != 0:
            print(f"perfbench: sweep-smoke integrity {integrity['ok']}, exit code "
                  f"{out.exit_code}, missing {len(integrity['missing'])}, quarantined "
                  f"{integrity['quarantined']}", file=sys.stderr)
        for task in tasks:
            record = records.get(task.fp)
            if record is None:  # quarantined or missing
                self.outcome.add(False)
                continue
            digest = fingerprint(record)
            if task.fp not in self.refs and task.payload["workload"]["kind"] == "spec":
                # a fuzzed spec of an unrecorded seed: later passes must repeat this one
                self.refs[task.fp] = digest
            self.outcome.add(integrity["ok"] and self.check(task.fp, digest))

    def layer_metrics(self, spans) -> dict:
        plan = spans.durations("build_plan")
        verify = spans.durations("verify_run")
        m = Methodology(self.configs, **QUICK_RECIPE)
        m.characterize(n_jobs=1)
        out = {
            "sweep.plan_s": median(plan) if plan else 0.0,
            "sweep.verify_s": median(verify) if verify else 0.0,
            **{f"sweep.{key}": value for key, value in self.runner.items()},
            "clusters.build_s": self._time_builds(spans, 1),
        }
        out.update(self._time_cache(spans, m))
        return out

    def inputs(self) -> dict:
        return {
            "configs": {n: fingerprint(c) for n, c in self.configs.items()},
            "workloads": [fingerprint(d) for d in self.workloads],
            "faults": {label: fingerprint(f) for label, f in self.faults},
            "char": fingerprint(self.char),
        }


WORKLOADS = {
    w.name: w for w in (CharacterizeCold, BTIOEval, SweepSmoke)
}
