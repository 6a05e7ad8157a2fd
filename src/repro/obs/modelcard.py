"""Model cards: the quality record written next to every registered fit.

A manifest (:mod:`repro.obs.manifest`) answers "what produced this
result?"; a *model card* answers the model-specific follow-ups — which
seed and sample, how the AICc search moved, how well the fit validated
(holdout and cross-validation), what its residuals look like, how big the
model is, and what the fit cost in simulations and wall time.  Every
``repro build`` registers its fitted model together with a card
(:mod:`repro.models.registry`), and ``repro models card`` renders one.

Cards are byte-deterministic given a fixed seed and clock: the creation
timestamp is injectable, all content is plain JSON serialised with sorted
keys, and non-finite floats (the AICc trajectory contains ``inf`` for
rejected oversized subsets) are normalised to ``None`` so the file is
strict JSON.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.manifest import provenance
from repro.util.store import write_atomic

#: Model-card schema version.
CARD_SCHEMA_VERSION = 1


def _finite(value: Any) -> Any:
    """``value`` with non-finite floats replaced by ``None``, recursively.

    ``json.dumps`` would emit the non-standard ``Infinity`` token for
    ``inf`` (and many parsers reject it); a rejected-model criterion value
    carries no more information than "not selectable", so ``None`` is the
    honest strict-JSON spelling.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _error_block(report: Any) -> Optional[Dict[str, Any]]:
    """Flatten an :class:`~repro.core.validation.ErrorReport` (or dict)."""
    if report is None:
        return None
    if isinstance(report, Mapping):
        return {k: _finite(v) for k, v in report.items()}
    return {
        "mean_error_pct": _finite(float(report.mean)),
        "max_error_pct": _finite(float(report.max)),
        "std_error_pct": _finite(float(report.std)),
        "count": int(report.count),
    }


def build_card(
    *,
    family: str,
    benchmark: Optional[str],
    sample_size: Optional[int],
    seed: Optional[int],
    diagnostics: Optional[Mapping[str, Any]] = None,
    selection: Optional[Mapping[str, Any]] = None,
    holdout: Any = None,
    cv: Any = None,
    uncertainty: Optional[Mapping[str, Any]] = None,
    cost: Optional[Mapping[str, Any]] = None,
    design_space_hash: Optional[str] = None,
    created: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble one model card as a plain JSON-ready dict.

    Parameters
    ----------
    family, benchmark, sample_size, seed:
        Identity of the fit: model family short name, the simulated
        benchmark, the training sample size and the root seed.
    diagnostics:
        The model's :meth:`~repro.models.base.Model.diagnostics` output
        (embedded verbatim, non-finite floats normalised).
    selection:
        Search summary — criterion name/value, chosen ``p_min``/``alpha``
        and the per-candidate criterion ``trajectory`` from
        :class:`~repro.models.rbf.RBFSearchResult`.
    holdout, cv:
        :class:`~repro.core.validation.ErrorReport` objects (or
        pre-flattened dicts) for the paper's independent test set and the
        cross-validation estimate; either may be ``None``.
    uncertainty:
        The calibration's :meth:`~repro.models.base.Uncertainty.as_dict`
        (residual quantiles, hull, band kind).
    cost:
        Training cost from the metrics registry: ``simulations_run``,
        ``cache_hits``, ``wall_time_s``, ``jobs``.
    design_space_hash:
        The sampled space's hash, matching the manifest.  The git SHA and
        versions come from :func:`~repro.obs.manifest.provenance`.
    created:
        ISO-8601 creation timestamp.  Injectable so tests (and the
        registry's byte-determinism contract) can pin the clock;
        ``None`` leaves the field null rather than reading the real clock,
        keeping card content a pure function of its inputs.
    """
    prov = provenance()
    return {
        "schema": CARD_SCHEMA_VERSION,
        "created": created,
        "family": family,
        "benchmark": benchmark,
        "sample_size": sample_size,
        "seed": seed,
        "design_space_hash": design_space_hash,
        "git_sha": prov["git_sha"],
        "version": prov["version"],
        "numpy_version": prov["numpy_version"],
        "python_version": prov["python_version"],
        "diagnostics": _finite(dict(diagnostics or {})),
        "selection": _finite(dict(selection or {})),
        "errors": {
            "holdout": _error_block(holdout),
            "cv": _error_block(cv),
        },
        "uncertainty": _finite(dict(uncertainty) if uncertainty else None),
        "cost": _finite(dict(cost or {})),
    }


def created_timestamp() -> str:
    """ISO-8601 UTC "now" for card/registry records, pinnable for tests.

    Honours the reproducible-builds ``SOURCE_DATE_EPOCH`` convention: when
    that variable holds an integer epoch, it is rendered instead of the
    real clock, making registration byte-deterministic end to end.
    """
    import os
    from datetime import datetime, timezone

    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        try:
            moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
            return moment.isoformat(timespec="seconds")
        except (ValueError, OverflowError, OSError):
            pass  # malformed pin: fall through to the real clock
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def selection_summary(search: Any) -> Dict[str, Any]:
    """Selection block from an :class:`~repro.models.rbf.RBFSearchResult`.

    Records the winning ``(p_min, alpha)``, the criterion value, and the
    full grid-search trajectory (one entry per candidate, in search
    order) — the "how did AICc move" record the paper's Sec. 2.6 grid
    search otherwise discards.
    """
    info = search.info
    return {
        "criterion": info.criterion_name,
        "criterion_value": info.criterion_value,
        "p_min": info.p_min,
        "alpha": info.alpha,
        "num_centers": info.num_centers,
        "num_candidates": info.num_candidates,
        "tree_depth": info.tree_depth,
        "trajectory": [
            {
                "p_min": t.p_min,
                "alpha": t.alpha,
                "criterion_value": t.criterion_value,
                "num_centers": t.num_centers,
            }
            for t in search.tried
        ],
    }


def card_to_json(card: Mapping[str, Any]) -> str:
    """Canonical serialisation: sorted keys, strict JSON, trailing newline."""
    return json.dumps(_finite(dict(card)), indent=1, sort_keys=True,
                      allow_nan=False) + "\n"


def write_card(card: Mapping[str, Any], path: Union[str, Path]) -> Path:
    """Atomically replace ``path`` with the card in canonical form."""
    return write_atomic(path, card_to_json(card))


def read_card(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a card back; raises ``ValueError`` on corrupt files."""
    path = Path(path)
    try:
        card = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt model card {path}: {exc}") from exc
    if not isinstance(card, dict):
        raise ValueError(f"corrupt model card {path}: not a JSON object")
    return card


def render_card(card: Mapping[str, Any]) -> str:
    """Human-readable rendering of a card (for ``repro models card``)."""
    lines: List[str] = []
    head = (f"model card · {card.get('family')} · "
            f"benchmark={card.get('benchmark')} "
            f"sample_size={card.get('sample_size')} seed={card.get('seed')}")
    lines.append(head)
    lines.append("-" * len(head))
    for key in ("created", "git_sha", "version", "numpy_version",
                "python_version", "design_space_hash"):
        if card.get(key) is not None:
            lines.append(f"{key:18} {card[key]}")
    diag = card.get("diagnostics") or {}
    if diag:
        body = ", ".join(f"{k}={v}" for k, v in sorted(diag.items())
                         if k != "family")
        lines.append(f"{'diagnostics':18} {body}")
    sel = card.get("selection") or {}
    if sel:
        lines.append(
            f"{'selection':18} {sel.get('criterion')}="
            f"{_fmt(sel.get('criterion_value'))} "
            f"p_min={sel.get('p_min')} alpha={sel.get('alpha')} "
            f"centers={sel.get('num_centers')} "
            f"({len(sel.get('trajectory') or [])} candidates tried)"
        )
    errors = card.get("errors") or {}
    for name in ("holdout", "cv"):
        block = errors.get(name)
        if block:
            lines.append(
                f"{'error/' + name:18} mean={_fmt(block.get('mean_error_pct'))}% "
                f"max={_fmt(block.get('max_error_pct'))}% "
                f"(n={block.get('count')})"
            )
    unc = card.get("uncertainty")
    if unc:
        q = unc.get("residual_quantiles") or [None, None, None]
        lines.append(
            f"{'uncertainty':18} kind={unc.get('kind')} "
            f"q10={_fmt(q[0])} q50={_fmt(q[1])} q90={_fmt(q[2])}"
        )
    cost = card.get("cost") or {}
    if cost:
        body = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(cost.items()))
        lines.append(f"{'cost':18} {body}")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    """Compact numeric formatting for the text rendering."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
