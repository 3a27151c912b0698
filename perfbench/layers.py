"""Module -> layer map and profile attribution for the traced run.

Layers are the repository's own modules, grouped the way the paper
groups the I/O path (kernel, devices, filesystems, I/O library) plus
the methodology's phases and the tooling around them.  Every module
under ``src/repro`` is listed explicitly, so a new module without a
layer fails the benchmark's tests instead of silently landing in
``other``.

Self-time of code outside the repository -- C builtins (``heapq``,
``dict`` methods, ``hashlib``) and the standard library (``json``,
``multiprocessing``) -- is charged to the layer that called it,
through the callers table that ``pstats`` keeps per function, so the
layer a builtin works for gets its cost.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["LAYERS", "MODULE_LAYER", "module_name", "layer_of_module", "attribute"]

LAYERS = (
    "simengine",
    "hardware.disk",
    "hardware.raid",
    "hardware.network",
    "storage.cache",
    "storage.localfs",
    "storage.nfs",
    "mpi",
    "core.replay",
    "core.characterize",
    "core.evaluation",
    "core.tablecache",
    "clusters",
    "workloads",
    "tracing",
    "obs",
    "faults",
    "sweep",
    "other",
)

_LAYER_MODULES = {
    "simengine": (
        "simengine", "simengine.analytic", "simengine.bench", "simengine.core",
        "simengine.resources", "simengine.rng", "simengine.schedule",
    ),
    "hardware.disk": ("hardware", "hardware.disk"),
    "hardware.raid": ("hardware.raid",),
    "hardware.network": ("hardware.network",),
    "storage.cache": ("storage.cache",),
    # the VFS mount table and the shared request types sit in front of
    # the local filesystem on every node
    "storage.localfs": ("storage", "storage.base", "storage.localfs", "storage.vfs"),
    "storage.nfs": ("storage.nfs",),
    "mpi": (
        "mpi", "mpi.collectives", "mpi.io", "mpi.sim",
        "iolib", "iolib.aggregation", "iolib.sieving",
    ),
    "core.replay": ("core.replay",),
    "core.characterize": ("core.characterize", "core.perftable", "core.latency"),
    "core.evaluation": (
        "core", "core.evaluation", "core.methodology", "core.parallel",
        "core.factors", "core.prediction", "core.report",
    ),
    # content hashing exists to key cached tables (and sweep tasks)
    "core.tablecache": ("core.tablecache", "fingerprint"),
    # nodes are assembled into clusters by the builder
    "clusters": (
        "clusters", "clusters.aohyper", "clusters.builder", "clusters.cluster_a",
        "hardware.node",
    ),
    "workloads": (
        "workloads", "workloads.apps", "workloads.beffio", "workloads.bonnie",
        "workloads.btio", "workloads.fuzz", "workloads.grammar", "workloads.ior",
        "workloads.iozone", "workloads.madbench", "workloads.synthetic", "units",
    ),
    "tracing": (
        "tracing", "tracing.darshan", "tracing.events", "tracing.ingest",
        "tracing.phases", "tracing.timeline", "tracing.tracer",
    ),
    "obs": (
        "obs", "obs.export", "obs.metrics", "obs.runreport", "obs.sampler",
        "core.utilization",
    ),
    "faults": ("faults", "faults.injector", "faults.report", "faults.schedule"),
    "sweep": (
        "sweep", "sweep.orchestrate", "sweep.plan", "sweep.report",
        "sweep.runner", "sweep.store", "sweep.worker",
    ),
    # off the default path: the CLI front end and the opt-in analysis
    # tools (sanitizer, lint, race matrix)
    "other": (
        "", "__main__", "cli", "analysis", "analysis.sanitizer",
        "analysis.simlint", "analysis.simrace",
    ),
}

#: dotted module name relative to ``repro`` ("" is the package itself)
MODULE_LAYER = {
    module: layer for layer, modules in _LAYER_MODULES.items() for module in modules
}


def module_name(path: Path, package_root: Path) -> str:
    """``repro``-relative dotted name of a source file under ``package_root``."""
    parts = list(path.relative_to(package_root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_module(module: str) -> str:
    """The layer of a ``repro``-relative module; raises for unmapped ones."""
    try:
        return MODULE_LAYER[module]
    except KeyError:
        raise KeyError(f"module repro.{module} has no layer in perfbench/layers.py")


def attribute(stats: dict, package_root: Path) -> dict:
    """Per-layer self-time and call counts from ``pstats.Stats.stats``.

    Functions defined under ``package_root`` belong to their module's
    layer; their call counts are the layer's ``calls``.
    Every other function (builtins, standard library, the benchmark's
    own frames) owns no layer: its self-time is split over its callers
    in proportion to the time each call edge accounts for, recursively,
    until it reaches repository code.  Time that reaches no repository
    frame (the benchmark driver itself) lands in ``other``.
    """
    root = str(package_root.resolve()) + "/"
    owner: dict = {}
    for func in stats:
        filename = func[0]
        if filename.startswith(root):
            owner[func] = layer_of_module(module_name(Path(filename), package_root))

    shares: dict = {}

    def share(func, active: frozenset) -> dict:
        if func in owner:
            return {owner[func]: 1.0}
        if func in shares:
            return shares[func]
        # caller edges are (ncalls, primitive calls, tottime, cumtime)
        callers = {c: e for c, e in stats[func][4].items() if c not in active}
        weights = {c: e[2] for c, e in callers.items() if e[2] > 0}
        if not weights:
            # no edge carries measurable time: split by call counts
            weights = {c: float(e[0]) for c, e in callers.items() if e[0] > 0}
        total = sum(weights.values())
        out: dict = {}
        if total <= 0:
            out = {"other": 1.0}
        else:
            for caller, w in weights.items():
                for layer, frac in share(caller, active | {func}).items():
                    out[layer] = out.get(layer, 0.0) + frac * w / total
        shares[func] = out
        return out

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, frac in share(func, frozenset()).items():
            self_s[layer] += tt * frac
        if func in owner:
            calls[owner[func]] += nc
    total = sum(self_s.values())
    named = total - self_s["other"]
    return {
        "self_s": self_s,
        "calls": calls,
        "total_s": total,
        "attributed_fraction": named / total if total > 0 else 0.0,
    }
