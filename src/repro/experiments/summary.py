"""Aggregate report over all regenerated exhibits.

Collects the rendered outputs under ``results/`` into one document, in
registry order, with the ablations appended — the artifact to read after
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import results_dir
from repro.util.store import write_atomic

_RULE = "=" * 72


def collect(directory: Optional[Path] = None) -> Tuple[List[str], List[str]]:
    """(present exhibit texts, missing exhibit names) from ``directory``."""
    directory = directory if directory is not None else results_dir()
    sections: List[str] = []
    missing: List[str] = []
    for key, exp in EXPERIMENTS.items():
        path = directory / (Path(exp.bench).stem.replace("test_", "") + ".txt")
        if path.exists():
            sections.append(f"{_RULE}\n{exp.exhibit}: {exp.title}\n{_RULE}\n"
                            + path.read_text(encoding="utf-8").rstrip())
        else:
            missing.append(exp.exhibit)
    for extra in sorted(directory.glob("ablation_*.txt")) if directory.exists() else []:
        sections.append(f"{_RULE}\n{extra.stem}\n{_RULE}\n"
                        + extra.read_text(encoding="utf-8").rstrip())
    return sections, missing


def write_summary(directory: Optional[Path] = None) -> Path:
    """Write ``results/SUMMARY.txt`` and return its path."""
    directory = directory if directory is not None else results_dir()
    sections, missing = collect(directory)
    header = [
        "Reproduction summary — 'A Predictive Performance Model for "
        "Superscalar Processors' (MICRO 2006)",
        f"exhibits present: {len(sections)}",
    ]
    if missing:
        header.append(
            "missing (run `pytest benchmarks/ --benchmark-only`): "
            + ", ".join(missing)
        )
    text = "\n".join(header) + "\n\n" + "\n\n".join(sections) + "\n"
    return write_atomic(directory / "SUMMARY.txt", text)
