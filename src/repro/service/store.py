"""The persistent digest-keyed result store.

Append-only JSONL under ``~/.cache/repro`` (override with the
``REPRO_CACHE_DIR`` environment variable or an explicit path): each line
is either a result record keyed by ``(model digest, query digest,
domain, method)`` or an ``invalidate`` tombstone naming a model
digest.  Load replays the log in order, so later writes win and a
tombstone evicts everything the named model wrote before it —
append-only on disk, last-writer-wins in memory, no locking beyond one
process-level mutex (concurrent daemons should share one store through
the service, not the file).

Only *decided* verdicts are stored: SAT with its witness features, or
UNSAT.  UNKNOWN and errored results are recomputation candidates by
definition, and storing them would freeze a resource limit into a
cross-run answer.

Floats round-trip bit-exact: Python's ``json`` serializes via
``repr(float)`` (shortest string that parses back to the same double),
so a restored witness replays through the network to the same outputs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.api.campaign import QueryResult
from repro.api.query import VerificationQuery
from repro.core.verdict import Verdict, VerificationVerdict
from repro.verification.counterexample import FeatureCounterexample
from repro.verification.solver.result import SolveResult, SolveStatus

#: store schema version, written into every record; unknown versions
#: are skipped on load instead of misread
STORE_VERSION = 1

#: the abstraction arithmetic every record names.  exact64 is the only
#: one; the field stays in the record so the format is unchanged.
#: Replay ignores it, so records naming an older arithmetic (same
#: verdicts by contract) are still served
_RECORD_PRECISION = "exact64"


def default_store_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


@dataclass(frozen=True)
class StoreKey:
    """Identity of one stored answer."""

    model: str  #: model digest (lowered-IR content hash)
    query: str  #: query digest (risk + set provenance + characterizer)
    domain: str  #: prescreen/CEGAR abstract domain ("none" when skipped)
    method: str  #: verdict method ("exact" / "relaxed" / "cegar" / ...)


@dataclass(frozen=True)
class StoredResult:
    """The JSON-serializable subset of a decided :class:`QueryResult`.

    Enough to rebuild an auditable result without re-solving: the
    verdict value, the solver status, and the witness (when SAT) as
    plain float lists.  Execution provenance (ladder, elapsed) describes
    the run that *computed* the answer and is recorded for forensics,
    not replayed into restored results.
    """

    verdict: str
    solver_status: str
    decided_by: str
    monitored: bool
    feature_set_kind: str
    elapsed: float = 0.0
    ladder: tuple[str, ...] = ()
    counterexample_features: tuple[float, ...] | None = None
    counterexample_output: tuple[float, ...] | None = None
    risk_margin: float | None = None
    characterizer_logit: float | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "verdict": self.verdict,
            "solver_status": self.solver_status,
            "decided_by": self.decided_by,
            "monitored": self.monitored,
            "feature_set_kind": self.feature_set_kind,
            "elapsed": self.elapsed,
            "ladder": list(self.ladder),
        }
        if self.counterexample_features is not None:
            out["counterexample"] = {
                "features": list(self.counterexample_features),
                "output": list(self.counterexample_output or ()),
                "risk_margin": self.risk_margin,
                "characterizer_logit": self.characterizer_logit,
            }
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "StoredResult":
        cex = payload.get("counterexample")
        return cls(
            verdict=payload["verdict"],
            solver_status=payload["solver_status"],
            decided_by=payload["decided_by"],
            monitored=bool(payload["monitored"]),
            feature_set_kind=payload["feature_set_kind"],
            elapsed=float(payload.get("elapsed", 0.0)),
            ladder=tuple(payload.get("ladder", ())),
            counterexample_features=(
                tuple(float(v) for v in cex["features"]) if cex else None
            ),
            counterexample_output=(
                tuple(float(v) for v in cex.get("output", ())) if cex else None
            ),
            risk_margin=(
                float(cex["risk_margin"])
                if cex and cex.get("risk_margin") is not None
                else None
            ),
            characterizer_logit=(
                float(cex["characterizer_logit"])
                if cex and cex.get("characterizer_logit") is not None
                else None
            ),
        )

    @classmethod
    def from_query_result(cls, result: QueryResult) -> "StoredResult":
        """Project a decided engine result; raises on undecided input."""
        if result.verdict is None or result.error is not None:
            raise ValueError("only decided verdict results are storable")
        verdict = result.verdict
        if verdict.verdict is Verdict.UNKNOWN:
            raise ValueError("UNKNOWN verdicts are recomputed, never stored")
        cex = verdict.counterexample
        return cls(
            verdict=verdict.verdict.value,
            solver_status=verdict.solve_result.status.value,
            decided_by=result.decided_by or "solve",
            monitored=verdict.monitored,
            feature_set_kind=verdict.feature_set_kind,
            elapsed=result.elapsed,
            ladder=tuple(result.ladder),
            counterexample_features=(
                tuple(float(v) for v in cex.features) if cex is not None else None
            ),
            counterexample_output=(
                tuple(float(v) for v in cex.predicted_output)
                if cex is not None
                else None
            ),
            risk_margin=float(cex.risk_margin) if cex is not None else None,
            characterizer_logit=(
                float(cex.characterizer_logit)
                if cex is not None and cex.characterizer_logit is not None
                else None
            ),
        )

    def to_query_result(self, query: VerificationQuery) -> QueryResult:
        """Rebuild an engine-shaped result with store provenance."""
        counterexample = None
        witness = None
        if self.counterexample_features is not None:
            witness = np.asarray(self.counterexample_features, dtype=float)
            counterexample = FeatureCounterexample(
                features=witness,
                predicted_output=np.asarray(
                    self.counterexample_output or (), dtype=float
                ),
                risk_margin=float(self.risk_margin or 0.0),
                characterizer_logit=self.characterizer_logit,
            )
        solve_result = SolveResult(
            status=SolveStatus(self.solver_status),
            witness=witness,
            stats={"decided": "result-store", "computed_by": self.decided_by},
        )
        verdict = VerificationVerdict(
            verdict=Verdict(self.verdict),
            property_name=query.property_name,
            risk=query.risk,
            feature_set_kind=self.feature_set_kind,
            monitored=self.monitored,
            solve_result=solve_result,
            counterexample=counterexample,
        )
        return QueryResult(
            query=query,
            verdict=verdict,
            ladder=("result-store",),
            decided_by="store",
            cache_hits=("result-store",),
        )


@dataclass
class StoreStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalidations: int = 0  #: entries evicted, not invalidate() calls

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "invalidations": self.invalidations,
        }


class ResultStore:
    """Append-only persistent map ``StoreKey -> StoredResult``.

    ``path=None`` keeps the store purely in memory (tests, ephemeral
    daemons); otherwise ``path`` is the JSONL file (its parent is
    created on first write).  Corrupt or unknown-version lines are
    counted and skipped — a half-written tail from a killed daemon must
    not take the whole cache down.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._entries: dict[StoreKey, StoredResult] = {}
        self._created: dict[StoreKey, float] = {}
        self.stats = StoreStats()
        self.skipped_lines = 0
        if self.path is not None and self.path.is_file():
            self._replay()

    @classmethod
    def default(cls) -> "ResultStore":
        return cls(default_store_dir() / "results.jsonl")

    # -- log replay --------------------------------------------------------

    def _replay(self) -> None:
        with self.path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self.skipped_lines += 1
                    continue
                if not isinstance(record, dict) or record.get("v") != STORE_VERSION:
                    self.skipped_lines += 1
                    continue
                kind = record.get("kind")
                try:
                    if kind == "result":
                        key = StoreKey(
                            model=record["model"],
                            query=record["query"],
                            domain=record["domain"],
                            method=record["method"],
                        )
                        self._entries[key] = StoredResult.from_dict(
                            record["payload"]
                        )
                        self._created[key] = float(record.get("created", 0.0))
                    elif kind == "invalidate":
                        self._evict(record["model"])
                    else:
                        self.skipped_lines += 1
                except (KeyError, TypeError, ValueError):
                    self.skipped_lines += 1

    def _evict(self, model_digest: str) -> int:
        stale = [key for key in self._entries if key.model == model_digest]
        for key in stale:
            del self._entries[key]
            self._created.pop(key, None)
        return len(stale)

    def _append(self, record: dict[str, Any]) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    # -- the map -----------------------------------------------------------

    def get(self, key: StoreKey) -> StoredResult | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return entry

    def put(self, key: StoreKey, result: StoredResult) -> None:
        created = time.time()
        with self._lock:
            self._entries[key] = result
            self._created[key] = created
            self.stats.puts += 1
            self._append(
                {
                    "v": STORE_VERSION,
                    "kind": "result",
                    "model": key.model,
                    "query": key.query,
                    "domain": key.domain,
                    "method": key.method,
                    "precision": _RECORD_PRECISION,
                    "created": created,
                    "payload": result.to_dict(),
                }
            )

    def invalidate(self, model_digest: str) -> int:
        """Evict every entry for ``model_digest``; returns the count.

        Appends a tombstone so the eviction survives restarts — the
        entries' result lines stay in the log (append-only) but replay
        drops them again.
        """
        with self._lock:
            evicted = self._evict(model_digest)
            self.stats.invalidations += evicted
            self._append(
                {
                    "v": STORE_VERSION,
                    "kind": "invalidate",
                    "model": model_digest,
                    "created": time.time(),
                }
            )
            return evicted

    def invalidation_hook(self, model_digest: str):
        """A ``hook(model)`` for ``Sequential.add_invalidation_hook``.

        Captures the digest at wiring time: by the time training fires
        the hook, the model already hashes to something new, and it is
        the *old* digest's entries that are stale.
        """

        def hook(_model) -> None:
            self.invalidate(model_digest)

        return hook

    # -- queries over the map ----------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: StoreKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[StoreKey]:
        with self._lock:
            return iter(list(self._entries))

    def results_for_model(self, model_digest: str) -> list[dict[str, Any]]:
        """JSON rows for ``GET /v1/results?model=...`` (insertion order)."""
        with self._lock:
            rows = [
                {
                    "model": key.model,
                    "query": key.query,
                    "domain": key.domain,
                    "method": key.method,
                    "precision": _RECORD_PRECISION,
                    "created": self._created.get(key, 0.0),
                    **self._entries[key].to_dict(),
                }
                for key in self._entries
                if key.model == model_digest
            ]
        return rows

    def model_digests(self) -> list[str]:
        with self._lock:
            return sorted({key.model for key in self._entries})
