"""List the public names under ``src/repro`` that only tests read.

A name counts as read when it occurs as a word in some Python file
under ``src/``, ``examples/``, ``benchmarks/`` or ``perf/``, outside its
own definition.  A module's ``__all__`` list and a package ``__init__``'s
imports and ``__all__`` are not readers: a re-export reads nothing.

Two kinds of name are checked:

* every name in a module's ``__all__`` (package ``__init__`` files
  excluded);
* every other public module-level function and class, and every public
  method of a public class.

The script prints one line per unread name and then the total.  With
``--max N`` it exits 1 when the total exceeds ``N``, so a new public
name whose only reader is a test has to come with a stated reason.

``--fields`` audits options instead: each field of the config classes
(``LogLensConfig``, ``ServiceConfig``, ``IngestLimits``,
``AlertsConfig``, ``AlertRule``, ``SinkSpec``) that no file under those
directories sets.  A field
counts as set where its name, as a word, is followed by ``=`` (a keyword
argument or a config-file key) or stands quoted before ``:`` or ``]``
(a JSON or dict key), outside its own class.  Each unset field is
reported as set by tests only, or by nothing at all.  ``--max-fields N``
exits 1 when more than ``N`` fields are unset, so a new option that
only a test turns has to come with a stated reason.

Run from the repository root::

    python3 tools/unread_names.py [--max N]
    python3 tools/unread_names.py --fields [--max-fields N]

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
READER_DIRS = ("src", "examples", "benchmarks", "perf")
TEST_DIR = "tests"
CONFIG_CLASSES = (
    "LogLensConfig", "ServiceConfig", "IngestLimits", "AlertsConfig",
    "AlertRule", "SinkSpec",
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Candidate(NamedTuple):
    path: Path
    line: int
    end_line: int
    name: str
    kind: str  # "__all__" | "function" | "class" | "method"


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _all_names(tree: ast.Module) -> List[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            return [
                elt.value for elt in getattr(node.value, "elts", [])
                if isinstance(elt, ast.Constant)
            ]
    return []


def _defined_spans(tree: ast.Module) -> Dict[str, Tuple[int, int]]:
    """Module-level name -> the line span of its definition."""
    spans: Dict[str, Tuple[int, int]] = {}
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    spans[target.id] = (node.lineno, node.end_lineno)
    return spans


def candidates(path: Path) -> Iterator[Candidate]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    spans = _defined_spans(tree)
    exported: Set[str] = set()
    if path.name != "__init__.py":
        for name in _all_names(tree):
            exported.add(name)
            start, end = spans.get(name, (0, 0))
            yield Candidate(path, start, end, name, "__all__")
    for node in tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) or not _is_public(node.name):
            continue
        if node.name not in exported:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            yield Candidate(
                path, node.lineno, node.end_lineno, node.name, kind
            )
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and _is_public(item.name):
                    yield Candidate(
                        path, item.lineno, item.end_lineno,
                        "%s.%s" % (node.name, item.name), "method",
                    )


def _reader_text(path: Path) -> List[str]:
    """The file's lines, with re-export lines blanked out."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    blank: List[Tuple[int, int]] = []
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        )
        reexport = path.name == "__init__.py" and isinstance(
            node, (ast.Import, ast.ImportFrom)
        )
        if is_all or reexport:
            blank.append((node.lineno, node.end_lineno))
    for start, end in blank:
        for i in range(start - 1, end):
            lines[i] = ""
    return lines


def reader_files() -> Iterator[Path]:
    for top in READER_DIRS:
        yield from sorted((ROOT / top).rglob("*.py"))


def unread(found: List[Candidate]) -> List[Candidate]:
    totals: Counter = Counter()
    lines_of: Dict[Path, List[str]] = {}
    for path in reader_files():
        lines = lines_of[path] = _reader_text(path)
        for line in lines:
            totals.update(WORD.findall(line))
    out = []
    for cand in found:
        word = cand.name.rsplit(".", 1)[-1]
        own = 0
        if cand.line:
            own = sum(
                WORD.findall(line).count(word)
                for line in lines_of[cand.path][cand.line - 1:cand.end_line]
            )
        if totals[word] - own == 0:
            out.append(cand)
    return out


class ConfigField(NamedTuple):
    path: Path
    line: int
    name: str  # "Owner.field"
    owner_span: Tuple[int, int]


def config_fields() -> Iterator[ConfigField]:
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not (
                isinstance(node, ast.ClassDef)
                and node.name in CONFIG_CLASSES
            ):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    yield ConfigField(
                        path, item.lineno,
                        "%s.%s" % (node.name, item.target.id),
                        (node.lineno, node.end_lineno),
                    )


def _setter(word: str) -> "re.Pattern[str]":
    """``word =`` (a keyword argument or config-file key, not ``==``),
    or ``"word":`` / ``["word"]`` (a JSON or dict key)."""
    return re.compile(
        r"(?<![\w.])%s\s*=(?!=)|[\"']%s[\"']\s*[:\]]" % (word, word)
    )


def _sets(field: ConfigField, texts: Dict[Path, List[str]]) -> bool:
    setter = _setter(field.name.rsplit(".", 1)[-1])
    for path, lines in texts.items():
        if path == field.path:
            start, end = field.owner_span
            lines = lines[:start - 1] + lines[end:]
        if any(setter.search(line) for line in lines):
            return True
    return False


def unset_fields() -> List[Tuple[ConfigField, str]]:
    """Each config field no reader file sets, with who does set it."""
    readers = {path: _reader_text(path) for path in reader_files()}
    tests = {
        path: _reader_text(path)
        for path in sorted((ROOT / TEST_DIR).rglob("*.py"))
    }
    out = []
    for field in config_fields():
        if not _sets(field, readers):
            out.append(
                (field, "by tests only" if _sets(field, tests) else "nowhere")
            )
    return out


def _fields_main(bound: Optional[int]) -> int:
    found = unset_fields()
    for field, setters in found:
        print("%s:%d: %s (set %s)" % (
            field.path.relative_to(ROOT), field.line, field.name, setters,
        ))
    print("%d config field(s) that no file outside tests/ sets" % len(found))
    if bound is not None and len(found) > bound:
        print(
            "more than --max-fields %d: give each new option a setter "
            "outside tests, or raise the bound with a stated reason"
            % bound,
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--max", type=int, default=None,
        help="exit 1 when more than this many names are unread",
    )
    parser.add_argument(
        "--fields", action="store_true",
        help="audit config fields instead of public names",
    )
    parser.add_argument(
        "--max-fields", type=int, default=None,
        help="with --fields, exit 1 when more than this many are unset",
    )
    args = parser.parse_args(argv)
    if args.fields:
        return _fields_main(args.max_fields)
    found = [
        cand
        for path in sorted(PACKAGE.rglob("*.py"))
        for cand in candidates(path)
    ]
    names = unread(found)
    for cand in names:
        print("%s:%d: %s (%s)" % (
            cand.path.relative_to(ROOT), cand.line, cand.name, cand.kind,
        ))
    by_kind = Counter(
        "__all__" if cand.kind == "__all__" else "other" for cand in names
    )
    print(
        "%d unread name(s): %d in modules' __all__, %d other public "
        "functions, methods and classes"
        % (len(names), by_kind["__all__"], by_kind["other"])
    )
    if args.max is not None and len(names) > args.max:
        print(
            "more than --max %d: give each new test-only name a reader, "
            "or raise the bound with a stated reason" % args.max,
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
