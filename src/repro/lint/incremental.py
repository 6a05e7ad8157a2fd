"""``repro lint --changed``: resolve the files changed vs a git ref.

The changed set is ``git diff --name-only <ref>...HEAD`` (the merge-base
form, so commits on the upstream branch do not count as local changes)
plus unstaged/staged modifications and untracked files.  Only ``.py``
paths that still exist are returned.  Any git failure — not a repo, the
ref does not exist, git missing — raises :class:`ChangedFilesError` so
the CLI can fall back loudly rather than lint nothing.
"""

from __future__ import annotations

import os
import subprocess
from typing import List

#: Default comparison ref for ``--changed`` without an argument.
DEFAULT_REF = "origin/main"


class ChangedFilesError(RuntimeError):
    """Raised when the changed set cannot be determined from git."""


def _git_lines(args: List[str]) -> List[str]:
    try:
        proc = subprocess.run(
            ["git"] + args, capture_output=True, text=True,
            timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise ChangedFilesError(f"git {' '.join(args)} failed: {exc}")
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        raise ChangedFilesError(
            f"git {' '.join(args)} failed: "
            f"{detail[0] if detail else proc.returncode}")
    return [line for line in proc.stdout.splitlines() if line.strip()]


def changed_files(ref: str = DEFAULT_REF) -> List[str]:
    """Python files changed vs ``ref`` (merge-base diff + worktree state).

    Git runs in the current working directory.  Returned paths are
    absolute: git reports names relative to the repository root, which
    need not be the working directory.
    """
    root = _git_lines(["rev-parse", "--show-toplevel"])[0]
    names = set(_git_lines(["diff", "--name-only", f"{ref}...HEAD"]))
    names.update(_git_lines(["diff", "--name-only", "HEAD"]))
    names.update(_git_lines(
        ["ls-files", "--others", "--exclude-standard", "--full-name"]))
    out = []
    for name in sorted(names):
        if not name.endswith(".py"):
            continue
        path = os.path.abspath(os.path.join(root, name))
        if os.path.isfile(path):
            out.append(path)
    return out
