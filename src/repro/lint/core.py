"""Core of the ``repro.lint`` framework: findings, rules, suppression.

A *rule* is a small class that inspects one parsed source file (or, for
``scope = "project"`` rules, the whole set of linted files) and emits
:class:`Finding` objects.  Rules register themselves in :data:`RULES` via
the :func:`register` decorator so the runner and the CLI discover them
automatically.

Suppression follows a two-level scheme:

* an inline trailing comment ``# repro: noqa[RULE-ID]`` suppresses matching
  findings on that source line;
* a standalone comment line ``# repro: noqa[RULE-ID]`` (nothing but the
  comment on the line) suppresses matching findings in the whole file.

``# repro: noqa`` without a bracket list suppresses every rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

#: Sentinel rule-id set meaning "suppress every rule".
ALL_RULES = "*"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\[\s*(?P<ids>[A-Za-z0-9_,\s-]+)\s*\])?",
)


@dataclass(frozen=True)
class Finding:
    """One lint finding: a rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (used by the JSON reporter)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def location(self) -> str:
        """``path:line:col`` prefix used by the text reporter."""
        return f"{self.path}:{self.line}:{self.col}"


def _parse_noqa_ids(text: str) -> Set[str]:
    """Extract the suppressed rule-id set from a noqa comment match."""
    match = _NOQA_RE.search(text)
    if match is None:
        return set()
    ids = match.group("ids")
    if ids is None:
        return {ALL_RULES}
    return {part.strip().upper() for part in ids.split(",") if part.strip()}


@dataclass
class Suppressions:
    """Per-file suppression state parsed from ``# repro: noqa`` comments."""

    #: Rule ids suppressed for the whole file (standalone comment lines).
    file_level: Set[str] = field(default_factory=set)
    #: Rule ids suppressed per physical line (inline trailing comments).
    by_line: Dict[int, Set[str]] = field(default_factory=dict)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether findings of ``rule`` at ``line`` are suppressed."""
        for ids in (self.file_level, self.by_line.get(line, set())):
            if ALL_RULES in ids or rule.upper() in ids:
                return True
        return False


def parse_suppressions(source: str) -> Suppressions:
    """Parse ``# repro: noqa`` comments out of a source string.

    Tokenization errors are swallowed (the parser reports those paths as
    ``SYN001`` findings separately), yielding no suppressions.
    """
    supp = Suppressions()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return supp
    lines = source.splitlines()
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        ids = _parse_noqa_ids(tok.string)
        if not ids:
            continue
        lineno = tok.start[0]
        line_text = lines[lineno - 1] if lineno - 1 < len(lines) else ""
        if line_text.strip() == tok.string.strip():
            supp.file_level |= ids
        else:
            supp.by_line.setdefault(lineno, set()).update(ids)
    return supp


def _statement_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """Multi-line anchor spans: ``(first, last)`` line of each statement.

    For compound statements (defs, classes, ``if``/``for``/``with``/...)
    only the *header* — decorators through the line before the first body
    statement — counts, so a noqa inside a function body never blankets
    the whole function.  Single-line statements are omitted: they need no
    expansion.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or start
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            decorators = getattr(node, "decorator_list", [])
            if decorators:
                start = min(start, decorators[0].lineno)
            end = body[0].lineno - 1
        if end > start:
            spans.append((start, end))
    return spans


def _expand_multiline_suppressions(
    supp: Suppressions, spans: Sequence[Tuple[int, int]]
) -> None:
    """Widen inline noqa comments to their whole multi-line statement.

    A finding's anchor (e.g. the ``def`` line of a decorated function, or
    the opening line of a parenthesised call) and the physical line a
    trailing ``# repro: noqa[...]`` comment sits on can differ when the
    statement spans several lines; expanding each inline suppression over
    the smallest enclosing statement span makes the comment effective
    anywhere in that statement.
    """
    if not supp.by_line:
        return
    for line in list(supp.by_line):
        ids = supp.by_line[line]
        best: Optional[Tuple[int, int]] = None
        for start, end in spans:
            if start <= line <= end and (
                    best is None or end - start < best[1] - best[0]):
                best = (start, end)
        if best is not None:
            for covered in range(best[0], best[1] + 1):
                supp.by_line.setdefault(covered, set()).update(ids)


@dataclass
class FileContext:
    """Everything a file-scope rule needs about one source file."""

    path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @classmethod
    def from_source(cls, path: str, source: str) -> "FileContext":
        """Parse ``source`` into a context; raises ``SyntaxError`` as-is."""
        tree = ast.parse(source, filename=path)
        supp = parse_suppressions(source)
        _expand_multiline_suppressions(supp, _statement_spans(tree))
        return cls(path=path, source=source, tree=tree, suppressions=supp)

    @cached_property
    def import_aliases(self) -> Dict[str, str]:
        """``import X as Y`` bindings anywhere in the file: ``{Y: X}``."""
        return {
            alias.asname: alias.name
            for node in ast.walk(self.tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.asname
        }


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes below and implement either
    :meth:`check_file` (``scope = "file"``) or :meth:`check_project`
    (``scope = "project"``).  File-scope rules that prefer the visitor
    style can instead subclass :class:`VisitorRule`.
    """

    #: Unique id, e.g. ``"RNG001"``; shown in reports and noqa comments.
    id: str = ""
    #: One-line summary shown by ``--list-rules`` and in the docs.
    title: str = ""
    #: ``"file"`` (checked per file) or ``"project"`` (checked once over all).
    scope: str = "file"
    #: Longer rationale used for documentation.
    rationale: str = ""

    def check_file(self, ctx: FileContext) -> List[Finding]:
        """Check one file; return findings (file-scope rules)."""
        return []

    def check_project(self, contexts: Sequence[FileContext]) -> List[Finding]:
        """Check the whole linted set; return findings (project rules)."""
        return []

    # -- helpers ----------------------------------------------------------

    def finding(self, path: str, node: Optional[ast.AST], message: str,
                line: int = 1, col: int = 0) -> Finding:
        """Build a :class:`Finding` for this rule at ``node`` (or line/col)."""
        if node is not None:
            line = getattr(node, "lineno", line)
            col = getattr(node, "col_offset", col)
        return Finding(rule=self.id, path=path, line=line, col=col,
                       message=message)


class VisitorRule(Rule, ast.NodeVisitor):
    """File-scope rule written as an :class:`ast.NodeVisitor`.

    Subclasses implement ``visit_*`` methods and call :meth:`report`;
    :meth:`check_file` drives the traversal and collects the findings.
    """

    def check_file(self, ctx: FileContext) -> List[Finding]:
        """Visit the file's AST and return the collected findings."""
        self._findings: List[Finding] = []
        self._ctx = ctx
        self.visit(ctx.tree)
        return self._findings

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding for ``node`` in the file being checked."""
        self._findings.append(self.finding(self._ctx.path, node, message))


class ProjectRule(Rule):
    """Project-scope rule driven by a whole-program :class:`Project`.

    Where :class:`VisitorRule` sees one file's AST, a ``ProjectRule``
    sees the entire linted set at once through a
    :class:`repro.lint.semantic.Project`: the parsed file contexts plus
    — built lazily, so rules that only need the raw contexts pay
    nothing — the symbol table, call graph and dataflow facts of
    :mod:`repro.lint.semantic`.  The runner builds the project once per
    run and shares it across every project rule, so the semantic passes
    cost one analysis.

    Subclasses implement :meth:`check`; :meth:`check_project` remains as
    a compatibility shim that wraps bare contexts in a project.
    """

    scope = "project"

    def check(self, project) -> List[Finding]:
        """Check the whole program; ``project`` is a semantic ``Project``."""
        return []

    def check_project(self, contexts: Sequence[FileContext]) -> List[Finding]:
        """Compatibility shim: wrap ``contexts`` and delegate to :meth:`check`."""
        from repro.lint.semantic import Project

        return self.check(Project(list(contexts)))


#: Registry of all known rules, keyed by rule id.
RULES: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULES` (keyed by ``id``)."""
    if not rule_cls.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule_cls.id in RULES:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    RULES[rule_cls.id] = rule_cls
    return rule_cls


def all_rules(select: Optional[Set[str]] = None,
              ignore: Optional[Set[str]] = None) -> List[Rule]:
    """Instantiate the registered rules, honouring select/ignore id sets."""
    out: List[Rule] = []
    for rule_id in sorted(RULES):
        if select and rule_id not in select:
            continue
        if ignore and rule_id in ignore:
            continue
        out.append(RULES[rule_id]())
    return out


def attribute_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Resolve a dotted ``a.b.c`` expression to a name tuple, else ``None``.

    Used by rules to match fully qualified calls like ``np.linalg.inv``
    without caring how deep the attribute nesting goes.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None
