"""Content-addressed result cache keyed by the scope fingerprint.

One completed job leaves one entry, ``<scope>.json``, holding the
job's full observable outcome (argv, exit status, stdout bytes) plus a
SHA-256 digest of the canonical payload JSON.  The scope fingerprint
(:mod:`repro.service.jobs`) already excludes every knob the
determinism contract makes byte-irrelevant, so a hit can be served to
any job of the same scope — different worker count, different engine —
without re-running anything.

Trust model: entries are *verified on read*.  A payload whose digest
does not match (bit rot, a crashed writer beaten by the atomic-rename
discipline, deliberate fault injection) is a **miss**, counted in
``service.cache.corrupt`` and quietly deleted so the re-run's fresh
entry replaces it.  Corruption costs a re-run, never a wrong answer
and never a crash.

Writes go through :func:`repro.durable_io.atomic_write_text` (tmp +
fsync + rename), so a torn cache entry can only be produced by storage
misbehaving after the fact — exactly what the read-time digest check
exists to catch.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

from repro import durable_io, obs


def cache_dir(store_root: str) -> str:
    """The result-cache directory inside a job-store root."""
    return os.path.join(str(store_root), "cache")


def payload_digest(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON form of a cache payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of sha256-verified, scope-addressed result entries.

    ``faults`` (a :class:`~repro.parallel.faults.FaultPlan`) arms the
    ``cache`` injection: a freshly written entry is immediately
    corrupted on disk, proving the read path degrades to a re-run.
    """

    def __init__(self, root: str, *, faults: object = None):
        self.root = str(root)
        self.faults = faults

    def path_for(self, scope: str) -> str:
        return os.path.join(self.root, f"{scope}.json")

    def get(self, scope: str) -> Optional[Dict[str, object]]:
        """The verified payload for ``scope``, or ``None`` on a miss.

        Counts ``service.cache.hits`` / ``service.cache.misses``;
        undecodable or digest-mismatched entries additionally count
        ``service.cache.corrupt`` and are deleted so the next run's
        fresh write is not fighting a poisoned file.
        """
        path = self.path_for(scope)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            obs.incr("service.cache.misses")
            return None
        except OSError:
            obs.incr("service.cache.misses")
            return None
        payload = self._verified(text)
        if payload is None:
            obs.incr("service.cache.corrupt")
            obs.incr("service.cache.misses")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        obs.incr("service.cache.hits")
        return payload

    @staticmethod
    def _verified(text: str) -> Optional[Dict[str, object]]:
        try:
            record = json.loads(text)
        except ValueError:
            return None
        if not isinstance(record, dict):
            return None
        payload = record.get("payload")
        digest = record.get("sha256")
        if not isinstance(payload, dict) or not isinstance(digest, str):
            return None
        if payload_digest(payload) != digest:
            return None
        return payload

    def put(self, scope: str, payload: Dict[str, object]) -> str:
        """Store ``payload`` atomically; returns the entry path."""
        path = self.path_for(scope)
        digest = payload_digest(payload)
        record = {"sha256": digest, "payload": payload}
        durable_io.atomic_write_text(
            path, json.dumps(record, sort_keys=True) + "\n"
        )
        faults = self.faults
        if faults is not None and getattr(faults, "cache", 0.0) > 0.0:
            if faults.decide_service("cache", scope):
                # Injected fault: mangle the stored digest so the next
                # read sees a verification failure, not valid data.
                durable_io.atomic_write_text(
                    path,
                    json.dumps(
                        {"sha256": "0" * 64, "payload": payload},
                        sort_keys=True,
                    ) + "\n",
                )
        return path
