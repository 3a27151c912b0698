"""Stable content hashes for configuration objects.

The characterization phase is a pure function of a
:class:`~repro.clusters.builder.SystemConfig` plus the sweep
parameters, so its result can be keyed by a digest of those inputs and
cached on disk (see :mod:`repro.core.tablecache`).  This module is a
leaf — stdlib only — so both :mod:`repro.clusters` and
:mod:`repro.core` can use it without layering cycles.

The digest is built from a canonical JSON form, not ``pickle`` or
``repr`` of the object graph, so it is stable across interpreter runs
(no hash randomisation) and across field *values* only: renaming or
adding a dataclass field changes the fingerprint, which is exactly the
invalidation behaviour a cache wants.

The same leaf also stamps benchmark and profile artefacts with their
provenance (:func:`provenance`): the code revision, a digest of the
source that ran, and the ``REPRO_*`` mode flags in effect.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "canonicalize",
    "canonical_json",
    "fingerprint",
    "workload_fingerprint",
    "git_revision",
    "source_digest",
    "repro_flags",
    "provenance",
]

#: the ``repro`` package directory; its parent is ``src/`` in a checkout
PACKAGE = Path(__file__).resolve().parent


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable canonical form.

    Dataclasses become ``{"<ClassName>": {field: value, ...}}`` (class
    name included so two configs with identical field values but
    different types do not collide), enums become ``[ClassName,
    value]``, mappings are key-sorted, and sequences keep their order.
    Anything else falls back to ``repr``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {type(obj).__name__: fields}
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, canonicalize(obj.value)]
    if isinstance(obj, (list, tuple)):
        return [canonicalize(x) for x in obj]
    if isinstance(obj, dict):
        return {
            str(k): canonicalize(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def canonical_json(obj: Any) -> str:
    """The canonical JSON serialisation of ``obj``.

    One byte sequence per value, forever: keys sorted, separators
    fixed, objects reduced through :func:`canonicalize` first.  This
    is the byte stream that both :func:`fingerprint` digests and the
    sweep write-ahead store CRCs — two processes (or two runs of the
    same process, days apart) serialising an equal value always
    produce identical bytes.
    """
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def fingerprint(*objs: Any) -> str:
    """A short stable hex digest of the canonical form of ``objs``."""
    payload = canonical_json(list(objs))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def workload_fingerprint(app: Any) -> str:
    """The content identity of an evaluation-phase workload.

    Routing: a workload that knows its own identity (``fingerprint()``
    method — spec-compiled and trace-replayed applications hash their
    compiled phase program, benchmark adapters their config) is asked
    directly; anything else falls back to a digest of its class name
    and canonical ``config``/``name`` attributes.  Two spec files — or
    a spec file and a re-imported trace — that compile to the same
    phase program therefore share a fingerprint, which is what lets
    them dedupe in caches and sweep schedulers.
    """
    fp = getattr(app, "fingerprint", None)
    if callable(fp):
        return fp()
    return fingerprint(
        type(app).__name__,
        getattr(app, "config", None),
        getattr(app, "name", ""),
    )


# ----------------------------------------------------------------------
# provenance of benchmark and profile artefacts
# ----------------------------------------------------------------------
def git_revision(root: Path) -> str | None:
    """Commit id of ``root/.git``'s HEAD, read from the files (no
    subprocess); ``None`` outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached HEAD
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


def source_digest(package: Path = PACKAGE) -> str:
    """sha256 (first 16 hex digits) over the package's ``*.py`` files,
    each keyed by its path relative to the package's parent — in a
    checkout, every ``src/**/*.py``."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package.parent)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repro_flags(environ: Mapping[str, str] = os.environ) -> dict[str, str]:
    """The ``REPRO_*`` environment variables set, by name."""
    return {k: environ[k] for k in sorted(environ) if k.startswith("REPRO_")}


def provenance() -> dict[str, Any]:
    """``{"git_rev", "src_sha256", "repro_flags"}`` of this process's code."""
    return {
        "git_rev": git_revision(PACKAGE.parent.parent),
        "src_sha256": source_digest(),
        "repro_flags": repro_flags(),
    }
