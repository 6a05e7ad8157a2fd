"""The library's single console-output seam.

Lint rule OBS001 bans bare ``print`` in library code: everything a module
wants a human to see funnels through here (or through a reporter / the
CLI), so console output stays greppable, testable and redirectable in one
place.  :func:`echo` is deliberately tiny — the value is the choke point,
not the implementation.
"""

from __future__ import annotations

import sys


def echo(text: str = "") -> None:
    """Write one line of human-facing output to stdout."""
    sys.stdout.write(str(text) + "\n")
