"""Run manifests: provenance records for every CLI invocation.

Each ``repro`` run (opt-out: ``--no-manifest``) appends one JSON record
to ``<runs_dir>/manifests.jsonl`` describing what ran and what came
out: argv, the resolved result-affecting configuration, a
content-addressed *scope fingerprint* over that configuration, the git
revision, wall time, exit status, a final metrics snapshot, and an
aggregated span profile.  ``repro runs list|show|diff`` renders and
compares the store; ``runs diff`` only makes sense between two runs of
the same scope, so the fingerprint is the join key.

The scope fingerprint hashes the canonical JSON of the command name
plus every argument that affects the *result* — statement, samples,
seed, steps, guard mode, fault spec.  Arguments that are
byte-identical-by-construction (``--workers``, ``--engine``,
checkpoint/resume plumbing, output/progress flags) are excluded by the
CLI before calling :func:`scope_fingerprint`, mirroring the checkpoint
scope discipline in :mod:`repro.proofs.verifier`: two runs with the
same fingerprint must produce the same report bytes.

The store location resolves as: explicit ``--runs-dir`` flag, then the
``REPRO_RUNS_DIR`` environment variable, then ``.repro/runs`` under the
current directory.  Writing is fail-soft — a read-only filesystem must
never break a verification run — and never touches stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro import durable_io
from repro.obs.sinks import format_table, jsonable

#: Environment variable overriding the default manifest store location.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Default store: ``.repro/runs`` under the working directory.
DEFAULT_RUNS_DIR = Path(".repro") / "runs"

#: The JSONL file inside the runs dir that records accumulate in.
MANIFEST_FILE = "manifests.jsonl"

Manifest = Dict[str, object]


def resolve_runs_dir(explicit: Union[str, Path, None] = None) -> Path:
    """The manifest store directory: flag > env var > ``.repro/runs``."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(RUNS_DIR_ENV)
    if env:
        return Path(env)
    return DEFAULT_RUNS_DIR


def scope_fingerprint(command: str, config: Dict[str, object]) -> str:
    """A content-addressed fingerprint of a run's result-affecting scope.

    Canonical JSON (sorted keys, no whitespace variance) hashed with
    SHA-256; two runs share a fingerprint exactly when the same command
    ran with the same result-affecting configuration.
    """
    canonical = json.dumps(
        {"command": command, "config": jsonable(config)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Cached git revision: one subprocess per process, not per manifest
# (CLI-heavy test suites invoke main() hundreds of times).
_git_revision_cache: List[Optional[str]] = []


def git_revision() -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout.

    Cached per process — the working tree's HEAD cannot change under a
    single run.
    """
    if _git_revision_cache:
        return _git_revision_cache[0]
    revision = _git_revision_uncached()
    _git_revision_cache.append(revision)
    return revision


def _git_revision_uncached() -> Optional[str]:
    try:
        process = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if process.returncode != 0:
        return None
    return process.stdout.strip() or None


def new_manifest(
    command: str,
    argv: Sequence[str],
    config: Dict[str, object],
    *,
    started_at: str,
    wall_s: float,
    exit_status: int,
    metrics: Optional[List[Dict[str, object]]] = None,
    profile: Optional[List[Dict[str, object]]] = None,
    git_rev: Optional[str] = None,
) -> Manifest:
    """Assemble one manifest record (pure; nothing touches disk)."""
    scope = scope_fingerprint(command, config)
    seed = f"{scope}|{started_at}|{os.getpid()}|{list(argv)!r}"
    run_id = hashlib.sha256(seed.encode("utf-8")).hexdigest()[:12]
    return {
        "id": run_id,
        "scope": scope,
        "command": command,
        "argv": list(argv),
        "config": jsonable(config),
        "git_rev": git_rev,
        "python": sys.version.split()[0],
        "started_at": started_at,
        "wall_s": round(wall_s, 6),
        "exit_status": exit_status,
        "metrics": metrics or [],
        "profile": profile or [],
    }


def append_manifest(
    manifest: Manifest, runs_dir: Union[str, Path, None] = None
) -> Optional[Path]:
    """Append one record to the store; fail-soft on filesystem errors.

    Returns the path written, or ``None`` when the write failed (a
    warning goes to stderr — provenance must never break the run it
    documents).
    """
    directory = resolve_runs_dir(runs_dir)
    path = directory / MANIFEST_FILE
    try:
        directory.mkdir(parents=True, exist_ok=True)
        durable_io.append_json_line(str(path), jsonable(manifest))
    except OSError as error:
        print(
            f"repro: warning: could not write run manifest to {path}: "
            f"{error}",
            file=sys.stderr,
        )
        return None
    return path


def load_manifests(
    runs_dir: Union[str, Path, None] = None,
) -> List[Manifest]:
    """Every record in the store, oldest first (corrupt lines skipped)."""
    path = resolve_runs_dir(runs_dir) / MANIFEST_FILE
    records, _dropped = durable_io.load_jsonl(str(path), tolerate="all")
    return [
        record
        for _lineno, record in records
        if isinstance(record, dict) and "id" in record
    ]


def find_manifest(
    run_id: str, runs_dir: Union[str, Path, None] = None
) -> Optional[Manifest]:
    """The newest record whose id starts with ``run_id``, if any."""
    matches = [
        manifest
        for manifest in load_manifests(runs_dir)
        if str(manifest.get("id", "")).startswith(run_id)
    ]
    return matches[-1] if matches else None


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def _metric_values(manifest: Manifest) -> Dict[str, object]:
    """Flatten a manifest's metric records to comparable name -> value.

    Counters and gauges compare by value; histograms by observation
    count (the summary's ``count`` field).
    """
    values: Dict[str, object] = {}
    for record in manifest.get("metrics", []) or []:
        name = str(record.get("name"))
        kind = record.get("type")
        if kind == "histogram":
            summary = record.get("summary") or {}
            values[f"{name}.count"] = summary.get("count")
        else:
            values[name] = record.get("value")
    return values


def diff_manifests(old: Manifest, new: Manifest) -> Dict[str, object]:
    """A structured comparison of two manifests.

    Meaningful between runs of the same scope (``same_scope`` flags
    it); metric rows cover the union of names, with ``delta`` set when
    both sides are numeric.
    """
    old_values = _metric_values(old)
    new_values = _metric_values(new)
    rows: List[Dict[str, object]] = []
    for name in sorted(set(old_values) | set(new_values)):
        before = old_values.get(name)
        after = new_values.get(name)
        if before == after:
            continue
        delta: Optional[float] = None
        if isinstance(before, (int, float)) and isinstance(
            after, (int, float)
        ):
            delta = after - before
        rows.append(
            {"name": name, "old": before, "new": after, "delta": delta}
        )
    wall_old = float(old.get("wall_s", 0.0))
    wall_new = float(new.get("wall_s", 0.0))
    return {
        "old": old.get("id"),
        "new": new.get("id"),
        "same_scope": old.get("scope") == new.get("scope"),
        "scope": {"old": old.get("scope"), "new": new.get("scope")},
        "wall_s": {
            "old": wall_old,
            "new": wall_new,
            "delta": round(wall_new - wall_old, 6),
        },
        "exit_status": {
            "old": old.get("exit_status"),
            "new": new.get("exit_status"),
        },
        "metrics": rows,
    }


# ----------------------------------------------------------------------
# Rendering (``repro runs``)
# ----------------------------------------------------------------------


def render_runs_table(manifests: Sequence[Manifest]) -> str:
    """The store as one row per run, newest last."""
    if not manifests:
        return "(no runs recorded)"
    rows = [
        (
            manifest.get("id", "?"),
            str(manifest.get("scope", ""))[:12],
            manifest.get("command", "?"),
            manifest.get("started_at", "?"),
            f"{float(manifest.get('wall_s', 0.0)):.2f}s",
            manifest.get("exit_status", "?"),
        )
        for manifest in manifests
    ]
    return format_table(
        ("id", "scope", "command", "started", "wall", "exit"), rows
    )


def render_manifest(manifest: Manifest) -> str:
    """One record, fully expanded, for ``repro runs show``."""
    lines = [
        f"id           {manifest.get('id')}",
        f"scope        {manifest.get('scope')}",
        f"command      {manifest.get('command')}",
        f"argv         {' '.join(map(str, manifest.get('argv', [])))}",
        f"git_rev      {manifest.get('git_rev')}",
        f"python       {manifest.get('python')}",
        f"started_at   {manifest.get('started_at')}",
        f"wall_s       {manifest.get('wall_s')}",
        f"exit_status  {manifest.get('exit_status')}",
    ]
    config = manifest.get("config") or {}
    if config:
        lines.append("config")
        for key in sorted(config):
            lines.append(f"  {key} = {config[key]!r}")
    metrics = manifest.get("metrics") or []
    if metrics:
        lines.append("metrics")
        for record in metrics:
            if record.get("type") == "histogram":
                summary = record.get("summary") or {}
                lines.append(
                    f"  {record.get('name')}  "
                    f"count={summary.get('count')}"
                )
            else:
                lines.append(
                    f"  {record.get('name')} = {record.get('value')}"
                )
    profile = manifest.get("profile") or []
    if profile:
        lines.append(f"profile      {len(profile)} stack(s) recorded")
    return "\n".join(lines)


def render_diff(diff: Dict[str, object]) -> str:
    """A ``runs diff`` comparison as fixed-width text."""
    lines = [f"diff {diff.get('old')} -> {diff.get('new')}"]
    if not diff.get("same_scope"):
        lines.append(
            "warning: runs have different scopes — metric deltas may "
            "not be comparable"
        )
    wall = diff.get("wall_s", {})
    lines.append(
        f"wall_s  {wall.get('old'):.3f} -> {wall.get('new'):.3f}  "
        f"(delta {wall.get('delta'):+.3f})"
    )
    exit_status = diff.get("exit_status", {})
    lines.append(
        f"exit    {exit_status.get('old')} -> {exit_status.get('new')}"
    )
    rows = diff.get("metrics", [])
    if rows:
        table_rows = [
            (
                row["name"],
                row["old"],
                row["new"],
                "n/a" if row["delta"] is None else f"{row['delta']:+g}",
            )
            for row in rows
        ]
        headers = ("metric", "old", "new", "delta")
        lines.append(format_table(headers, table_rows))
    else:
        lines.append("(no metric differences)")
    return "\n".join(lines)
