"""Versioned, content-addressed registry of fitted model artifacts.

A fitted model is the product of the whole pipeline, yet an anonymous
``model.json`` cannot answer "which fit is this, what replaced it, and is
it worse than the last one?".  The registry does: every ``repro build``
registers its fit under a *content address* (a short SHA-256 of the
model's canonical JSON encoding), keyed by benchmark × family × sample
size × git SHA × design-space hash, together with its model card
(:mod:`repro.obs.modelcard`).  Registrations append to a JSONL index
through :func:`repro.util.store.append_jsonl`; each ``(benchmark, family,
sample_size)`` lineage gets a monotonically increasing version number,
which is what ``repro models check`` walks to find a fresh fit's
predecessor.

Layout under ``results/models`` (honouring ``$REPRO_RESULTS_DIR``)::

    index.jsonl           one record per registration, append-only
    artifacts/<sha>.json  the model, via repro.models.io (hash-verified)
    cards/<hash>.json     the model card, canonical sorted-key JSON,
                          named by a hash of its own bytes

Drift gating compares two fits of the same lineage on a *fixed seeded
probe grid* (no simulation needed) with a MAD-style score — the same
robust-statistics family as the run-history gate — so a silently degraded
refit fails CI even when its headline training error looks fine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.models.base import Model
from repro.models.io import encode_model, load_model, model_family, save_model
from repro.obs.modelcard import card_to_json, read_card, write_card
from repro.util import store
from repro.util.rng import make_rng

#: Registry index record schema version.
REGISTRY_SCHEMA_VERSION = 1

#: Default probe-grid size for drift checks.
PROBE_POINTS = 64

#: Default probe-grid seed (a fixed, documented constant: the probe grid
#: must be identical across machines and releases for drift to be
#: meaningful).
PROBE_SEED = 2006

#: Default MAD-style drift tolerance for ``repro models check``.
DRIFT_TOLERANCE = 0.5

def default_registry_root() -> Path:
    """``results/models``, honouring ``$REPRO_RESULTS_DIR``."""
    return store.results_dir() / "models"


def content_hash(model: Model) -> str:
    """16-hex content address of a model's canonical encoding.

    Hashes the model parameters *and* the attached uncertainty calibration
    (both are part of the artifact's behaviour), but not free-form
    metadata — re-registering the same fit under a different benchmark
    label would still collide, which is exactly what content addressing
    means.
    """
    payload = encode_model(model)
    canonical = json.dumps(
        {"model": payload["model"], "uncertainty": payload["uncertainty"]},
        sort_keys=True,
    )
    return sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RegistryEntry:
    """One registration: the index record in attribute form."""

    sha: str
    family: str
    benchmark: Optional[str]
    sample_size: Optional[int]
    version: int
    seed: Optional[int]
    design_space_hash: Optional[str]
    git_sha: Optional[str]
    created: Optional[str]
    artifact: str  # registry-relative path of the model file
    card: Optional[str]  # registry-relative path of the card file
    mean_error_pct: Optional[float]

    def lineage(self) -> tuple:
        """The key drift checks compare along."""
        return (self.benchmark, self.family, self.sample_size)

    def as_record(self) -> Dict[str, Any]:
        """The JSONL index record for this entry."""
        return {
            "schema": REGISTRY_SCHEMA_VERSION,
            "sha": self.sha,
            "family": self.family,
            "benchmark": self.benchmark,
            "sample_size": self.sample_size,
            "version": self.version,
            "seed": self.seed,
            "design_space_hash": self.design_space_hash,
            "git_sha": self.git_sha,
            "created": self.created,
            "artifact": self.artifact,
            "card": self.card,
            "mean_error_pct": self.mean_error_pct,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "RegistryEntry":
        """Rebuild an entry from an index record (lenient on extras)."""
        return cls(
            sha=str(record["sha"]),
            family=str(record.get("family")),
            benchmark=record.get("benchmark"),
            sample_size=record.get("sample_size"),
            version=int(record.get("version", 1)),
            seed=record.get("seed"),
            design_space_hash=record.get("design_space_hash"),
            git_sha=record.get("git_sha"),
            created=record.get("created"),
            artifact=str(record.get("artifact")),
            card=record.get("card"),
            mean_error_pct=record.get("mean_error_pct"),
        )


class ModelRegistry:
    """The on-disk registry rooted at ``root`` (see module docstring)."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_registry_root()

    # -- paths ---------------------------------------------------------------

    @property
    def index_path(self) -> Path:
        """The append-only JSONL index file."""
        return self.root / "index.jsonl"

    def artifact_path(self, sha: str) -> Path:
        """Absolute path of the model file for ``sha``."""
        return self.root / "artifacts" / f"{sha}.json"

    def card_path(self, card: Mapping[str, Any]) -> Path:
        """Absolute path of ``card``, named by a hash of its canonical bytes.

        A card carries its run's cost and creation time, so an identical
        refit registers a new card beside the old one, never over it.
        """
        digest = sha256(card_to_json(card).encode("utf-8")).hexdigest()[:16]
        return self.root / "cards" / f"{digest}.json"

    # -- reading -------------------------------------------------------------

    def entries(
        self,
        benchmark: Optional[str] = None,
        family: Optional[str] = None,
        sample_size: Optional[int] = None,
    ) -> List[RegistryEntry]:
        """All index entries in registration order, optionally filtered.

        Reads are lenient like the run ledger: unparseable lines are
        skipped, never fatal.
        """
        if not self.index_path.exists():
            return []
        records, _ = store.read_jsonl(self.index_path)
        out: List[RegistryEntry] = []
        for record in records:
            if "sha" not in record:
                continue
            entry = RegistryEntry.from_record(record)
            if benchmark is not None and entry.benchmark != benchmark:
                continue
            if family is not None and entry.family != family:
                continue
            if sample_size is not None and entry.sample_size != sample_size:
                continue
            out.append(entry)
        return out

    def latest(
        self,
        benchmark: Optional[str] = None,
        family: Optional[str] = None,
        sample_size: Optional[int] = None,
    ) -> Optional[RegistryEntry]:
        """The most recent matching entry, or ``None``."""
        matches = self.entries(benchmark, family, sample_size)
        return matches[-1] if matches else None

    def predecessor(self, entry: RegistryEntry) -> Optional[RegistryEntry]:
        """The latest *earlier* registration in ``entry``'s lineage."""
        prior = [
            e for e in self.entries()
            if e.lineage() == entry.lineage() and e.version < entry.version
        ]
        return prior[-1] if prior else None

    def find(self, selector: str) -> Optional[RegistryEntry]:
        """Resolve a CLI selector: a SHA prefix or a benchmark name.

        SHA prefixes match the most recent registration first; a bare
        benchmark name resolves to that benchmark's latest entry.
        """
        entries = self.entries()
        for entry in reversed(entries):
            if entry.sha.startswith(selector):
                return entry
        for entry in reversed(entries):
            if entry.benchmark == selector:
                return entry
        return None

    def load(self, entry: RegistryEntry):
        """Load ``entry``'s model, verifying the content address.

        Returns ``(model, parameter_names, metadata)`` exactly like
        :func:`repro.models.io.load_model`; raises ``ValueError`` when the
        artifact's recomputed hash no longer matches the index (artifact
        tampered with or truncated).
        """
        path = self.root / entry.artifact
        model, names, metadata = load_model(path)
        actual = content_hash(model)
        if actual != entry.sha:
            raise ValueError(
                f"artifact {entry.artifact} hash mismatch: index says "
                f"{entry.sha}, content is {actual}"
            )
        return model, names, metadata

    def card(self, entry: RegistryEntry) -> Dict[str, Any]:
        """Load ``entry``'s model card; raises ``ValueError`` when absent."""
        if not entry.card:
            raise ValueError(f"entry {entry.sha} has no model card")
        return read_card(self.root / entry.card)

    # -- writing -------------------------------------------------------------

    def register(
        self,
        model: Model,
        *,
        benchmark: Optional[str] = None,
        sample_size: Optional[int] = None,
        seed: Optional[int] = None,
        design_space_hash: Optional[str] = None,
        git_sha: Optional[str] = None,
        parameter_names: Optional[List[str]] = None,
        metadata: Optional[dict] = None,
        card: Optional[Mapping[str, Any]] = None,
        mean_error_pct: Optional[float] = None,
        now: Optional[str] = None,
    ) -> RegistryEntry:
        """Register a fitted model; returns the new index entry.

        Writes the artifact (via :func:`repro.models.io.save_model`) and
        the card, then appends the index record through the store; the
        lineage version is assigned *inside* the lock so concurrent
        registrations of the same lineage get distinct versions.  ``now``
        is the recorded creation timestamp — injectable so the whole
        registration is byte-deterministic under a pinned clock; ``None``
        records null rather than reading the real clock.
        Registering is observation only: it never mutates the model.
        """
        sha = content_hash(model)
        family = model_family(model)
        artifact = save_model(model, self.artifact_path(sha),
                              parameter_names=parameter_names,
                              metadata=metadata)
        card_file = (write_card(card, self.card_path(card))
                     if card is not None else None)

        def build(records: List[Dict[str, Any]]) -> Dict[str, Any]:
            version = max([1] + [
                int(r.get("version", 0)) + 1 for r in records
                if (r.get("benchmark"), r.get("family"), r.get("sample_size"))
                == (benchmark, family, sample_size)
            ])
            return RegistryEntry(
                sha=sha,
                family=family,
                benchmark=benchmark,
                sample_size=sample_size,
                version=version,
                seed=seed,
                design_space_hash=design_space_hash,
                git_sha=git_sha,
                created=now,
                artifact=artifact.relative_to(self.root).as_posix(),
                card=(card_file.relative_to(self.root).as_posix()
                      if card_file is not None else None),
                mean_error_pct=mean_error_pct,
            ).as_record()

        return RegistryEntry.from_record(
            store.append_jsonl(self.index_path, build))


# -- probe grids and drift ----------------------------------------------------


def probe_grid(dimension: int, n: int = PROBE_POINTS,
               seed: int = PROBE_SEED) -> np.ndarray:
    """The fixed seeded unit-cube grid drift checks predict on.

    Deterministic across machines (seeded through
    :func:`repro.util.rng.make_rng`), so two fits — or the same fit on two
    machines — are always compared on identical points.
    """
    rng = make_rng(seed, "models-probe", n, dimension)
    return rng.random((n, dimension))


def probe_predictions(model: Model, n: int = PROBE_POINTS,
                      seed: int = PROBE_SEED) -> np.ndarray:
    """``model``'s predictions on its dimension's probe grid."""
    dimension = getattr(model, "dimension", None)
    if dimension is None:
        raise ValueError("model exposes no dimension; cannot probe")
    return model.predict(probe_grid(int(dimension), n=n, seed=seed))


def drift_report(
    reference: np.ndarray,
    candidate: np.ndarray,
    tolerance: float = DRIFT_TOLERANCE,
) -> Dict[str, Any]:
    """MAD-style drift score between two prediction vectors.

    The score is ``median(|candidate - reference|)`` divided by the median
    absolute deviation of ``reference`` (its natural robust scale, floored
    to avoid zero-division on constant references); ``max_score`` is the
    same normalisation of the worst single point.  ``drifted`` is true
    when the median score exceeds ``tolerance`` — robust to a handful of
    hull-edge points moving, sensitive to a systematic shift, the same
    statistics family as the run-history gate.
    """
    reference = np.asarray(reference, dtype=float).ravel()
    candidate = np.asarray(candidate, dtype=float).ravel()
    if reference.shape != candidate.shape:
        raise ValueError("prediction vectors must have equal length")
    diff = np.abs(candidate - reference)
    scale = float(np.median(np.abs(reference - np.median(reference))))
    scale = max(scale, 1e-12)
    score = float(np.median(diff)) / scale
    max_score = float(diff.max()) / scale if len(diff) else 0.0
    return {
        "points": int(len(diff)),
        "scale": scale,
        "median_abs_diff": float(np.median(diff)) if len(diff) else 0.0,
        "max_abs_diff": float(diff.max()) if len(diff) else 0.0,
        "score": score,
        "max_score": max_score,
        "tolerance": tolerance,
        "drifted": bool(score > tolerance),
    }


# -- probe baselines (the committed CI reference) -----------------------------

#: Probe-baseline document schema version.
BASELINE_SCHEMA_VERSION = 1


def baseline_document(
    model: Model,
    *,
    benchmark: Optional[str] = None,
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
    n: int = PROBE_POINTS,
    probe_seed: int = PROBE_SEED,
) -> Dict[str, Any]:
    """A committed drift baseline: probe predictions plus identity.

    CI refits the model from scratch and compares its probe predictions
    against this document with :func:`drift_report` — catching silent fit
    degradation without needing the original artifact in the repository.
    """
    predictions = probe_predictions(model, n=n, seed=probe_seed)
    return {
        "schema": BASELINE_SCHEMA_VERSION,
        "family": model_family(model),
        "benchmark": benchmark,
        "sample_size": sample_size,
        "seed": seed,
        "sha": content_hash(model),
        "probe": {"n": n, "seed": probe_seed,
                  "dimension": int(getattr(model, "dimension"))},
        "predictions": [float(v) for v in predictions],
    }


def write_baseline(document: Mapping[str, Any],
                   path: Union[str, Path]) -> Path:
    """Atomically replace ``path`` with a probe baseline as sorted-key JSON."""
    return store.write_atomic(path, json.dumps(
        dict(document), indent=1, sort_keys=True, allow_nan=False) + "\n")


def read_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a probe baseline; raises ``ValueError`` on corrupt files."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt probe baseline {path}: {exc}") from exc
    if not isinstance(document, dict) or "predictions" not in document:
        raise ValueError(f"corrupt probe baseline {path}: missing predictions")
    return document


def check_against_baseline(
    model: Model,
    baseline: Mapping[str, Any],
    tolerance: float = DRIFT_TOLERANCE,
) -> Dict[str, Any]:
    """Drift report of ``model`` against a probe baseline document."""
    probe = baseline.get("probe") or {}
    n = int(probe.get("n", PROBE_POINTS))
    probe_seed = int(probe.get("seed", PROBE_SEED))
    reference = np.asarray(baseline["predictions"], dtype=float)
    candidate = probe_predictions(model, n=n, seed=probe_seed)
    report = drift_report(reference, candidate, tolerance=tolerance)
    report["baseline_sha"] = baseline.get("sha")
    report["candidate_sha"] = content_hash(model)
    return report
