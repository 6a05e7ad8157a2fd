"""Command-line front end: ``python -m repro.lint`` / ``repro-lint``.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage errors (bad paths,
unknown rules, an unresolvable ``--changed`` ref — argparse reports
these).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Set

from repro.lint.core import RULES
from repro.lint.incremental import DEFAULT_REF, ChangedFilesError
from repro.lint.reporters import REPORTERS
from repro.lint.runner import LintRunner


def _rule_ids(text: str) -> Set[str]:
    """Parse a comma-separated rule-id list, validating against the registry."""
    ids = {part.strip().upper() for part in text.split(",") if part.strip()}
    unknown = ids - set(RULES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(RULES))})"
        )
    return ids


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static checks for the repro codebase's reproducibility, "
                    "numerical-stability and design-space contracts.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=sorted(REPORTERS),
                        default="text", help="report format (default: text)")
    parser.add_argument("--select", type=_rule_ids, default=None,
                        metavar="IDS", help="only run these rule ids")
    parser.add_argument("--ignore", type=_rule_ids, default=None,
                        metavar="IDS", help="skip these rule ids")
    parser.add_argument("--changed", nargs="?", const=DEFAULT_REF,
                        default=None, metavar="REF",
                        help="incremental mode: lint only files changed vs "
                             f"a git ref (default ref: {DEFAULT_REF}); "
                             "project-wide rules still read every file")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the registered rules and exit")
    return parser


def _list_rules(stream) -> int:
    for rule_id in sorted(RULES):
        cls = RULES[rule_id]
        stream.write(f"{rule_id}  [{cls.scope}]  {cls.title}\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules(sys.stdout)

    runner = LintRunner(select=args.select, ignore=args.ignore)
    try:
        result = runner.run(args.paths, changed_ref=args.changed)
    except (FileNotFoundError, ChangedFilesError) as exc:
        parser.error(str(exc))  # exits 2

    try:
        REPORTERS[args.format](result, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # Reader (e.g. `repro-lint src | head`) closed the pipe; the
        # findings still determine the exit code.
        sys.stderr.close()  # suppress the interpreter's flush warning
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
