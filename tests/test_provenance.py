"""Provenance stamps on ``repro perf`` artefacts, and perf_guard's
indifference to them."""

import importlib.util
import json
from pathlib import Path

from repro.fingerprint import git_revision, provenance, repro_flags, source_digest

ROOT = Path(__file__).resolve().parent.parent


def load_perf_guard():
    spec = importlib.util.spec_from_file_location("perf_guard", ROOT / "scripts" / "perf_guard.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_git_revision_reads_refs_without_git(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\n" + "b" * 40 + " refs/heads/main\n")
    assert git_revision(tmp_path) == "b" * 40
    (git / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
    assert git_revision(tmp_path) == "a" * 40  # a loose ref wins
    (git / "HEAD").write_text("c" * 40 + "\n")
    assert git_revision(tmp_path) == "c" * 40  # detached
    assert git_revision(tmp_path / "elsewhere") is None


def test_source_digest_covers_python_sources_only(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "sub" / "b.py").write_text("y = 2\n")
    before = source_digest(pkg)
    (pkg / "notes.txt").write_text("not code")
    assert source_digest(pkg) == before
    (pkg / "sub" / "b.py").write_text("y = 3\n")
    assert source_digest(pkg) != before


def test_repro_flags_and_stamp():
    assert repro_flags({"REPRO_SANITIZE": "1", "HOME": "/x", "REPRO_JOBS": "2"}) == {
        "REPRO_JOBS": "2", "REPRO_SANITIZE": "1"}
    stamp = provenance()
    assert set(stamp) == {"git_rev", "src_sha256", "repro_flags"}
    assert stamp["src_sha256"] == source_digest()
    assert all(k.startswith("REPRO_") for k in stamp["repro_flags"])


def _bench(tmp_path, name, seconds, stamp):
    doc = {
        "benchmark": "characterize",
        "host": {"cpu_count": 1},
        "provenance": stamp,
        "params": {"faults": None, "analytic": False, "sanitize": False},
        "timings_s": {"characterize_serial": seconds},
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_perf_guard_ignores_provenance(tmp_path, capsys):
    guard = load_perf_guard()
    old = {"git_rev": "a" * 40, "src_sha256": "0" * 16, "repro_flags": {}}
    new = {"git_rev": "b" * 40, "src_sha256": "1" * 16,
           "repro_flags": {"REPRO_NO_FASTHOLD": "1"}}
    base = _bench(tmp_path, "base.json", 10.0, old)
    assert guard.check(base, _bench(tmp_path, "same.json", 10.0, new), 1.25) == []
    assert "skipping" not in capsys.readouterr().out
    # the gate itself is unchanged: a slowdown still fails
    assert guard.check(base, _bench(tmp_path, "slow.json", 13.0, new), 1.25)
