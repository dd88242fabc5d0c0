"""Every function, class and method in ``src/`` is reached from ``src/``, or is listed here.

A definition is reached when module-level code in ``src/`` names it (any
statement outside a ``def`` or ``class`` body, such as ``STAGE_TABLE`` or the
``__main__`` guard), or when a reached definition names it. A name is the
name a ``Name`` or ``Attribute`` node carries; the check reads the syntax
tree, not the text, so docstrings and comments do not count. A dunder method
is called by the language, so it is reached together with its class. An
allow-listed definition is not a root: what only it names stays unreached.
The match is by name alone, so a same-named reference elsewhere hides a
definition: the list errs short, never long.

Every annotated field of a class in ``src/`` is read by name in ``src/``:
as an attribute load, or as a string constant (``getattr(provider,
"waits_on_io")``). It matches by name too, so a field only a test reads
shows, while a same-named read elsewhere hides one.

The same reading checks that the exposure band cutoffs, the sink labels,
the grade buckets and the report's file names each have one owner.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from taskshift import report
from taskshift.corpus import GradeBucket

SRC = Path(__file__).resolve().parent.parent / "src"
KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# qualified name -> why it stays without a caller in src/
ALLOWED = {
    "taskshift.metrics.spearman": "acceptance criterion 9",
    "taskshift.metrics.krippendorff_alpha": "acceptance criterion 9",
    "taskshift.metrics.pearson": "spearman's correlation of the ranks; acceptance criterion 9",
    "taskshift.metrics._average_ranks": "spearman's tie-averaged ranks; acceptance criterion 9",
    "taskshift.metrics._check_pair": "the length check of pearson and spearman",
    "taskshift.pipeline.read_jsonl": (
        "the benchmark's JSONL read hook (bench/spans.py); the memory tests' size measure"
    ),
}


class Definition(NamedTuple):
    name: str
    names: set[str]  # what its own code names
    dunders: tuple[str, ...]  # its dunder methods, reached with it


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(nodes) -> set[str]:
    """The name of every ``Name`` and ``Attribute`` node under ``nodes``."""
    names = set()
    for node in nodes:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name):
                names.add(inner.id)
            elif isinstance(inner, ast.Attribute):
                names.add(inner.attr)
    return names


def definitions_and_roots() -> tuple[dict[str, Definition], set[str]]:
    """Each module-level function and class and each class member in ``src/``,
    by qualified name, and the names that module-level code names."""
    definitions: dict[str, Definition] = {}
    roots: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, KINDS):
                roots |= _names([node])
                continue
            qualified = f"{module}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                definitions[qualified] = Definition(node.name, _names([node]), ())
                continue
            members = [member for member in node.body if isinstance(member, KINDS)]
            for member in members:
                definitions[f"{qualified}.{member.name}"] = Definition(
                    member.name, _names([member]), ()
                )
            own = [child for child in ast.iter_child_nodes(node) if child not in members]
            dunders = tuple(f"{qualified}.{m.name}" for m in members if _is_dunder(m.name))
            definitions[qualified] = Definition(node.name, _names(own), dunders)
    return definitions, roots


def unreached_definitions() -> set[str]:
    definitions, named = definitions_and_roots()
    reached: set[str] = set()
    while True:
        new = {q for q, d in definitions.items() if q not in reached and d.name in named}
        new |= {dunder for qualified in new for dunder in definitions[qualified].dunders}
        if not new:
            return set(definitions) - reached
        reached |= new
        for qualified in new:
            named |= definitions[qualified].names


def test_unreached_definitions_are_exactly_the_allowed_ones():
    assert unreached_definitions() == set(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())


def unread_fields() -> set[str]:
    """Each annotated class field in ``src/`` whose name ``src/`` never reads,
    by qualified name."""
    declared: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                        declared[f"{module}.{node.name}.{member.target.id}"] = member.target.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return {qualified for qualified, name in declared.items() if name not in read}


def test_every_class_field_is_read_in_src():
    assert unread_fields() == set()


def test_band_cutoffs_are_read_only_in_exposure():
    # every other module bands scores through exposure.py, so a cutoff
    # cannot change in one table and not in another
    cutoffs = {"HIGH_CUTOFF", "MEDIUM_CUTOFF", "LOW_CUTOFF"}
    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):  # from .exposure import HIGH_CUTOFF
                name = node.name
            else:
                continue
            if name in cutoffs:
                readers.add(path.relative_to(SRC).as_posix())
    assert readers == {"taskshift/exposure.py"}


def test_sink_labels_and_grade_buckets_are_written_only_by_their_owner():
    # other modules name these labels through the owner's constant or enum,
    # so a label cannot change in one table and not in another
    owner_of = {"Other": "taskshift/corpus.py", "uncategorized": "taskshift/clustering.py"}
    owner_of.update({bucket.value: "taskshift/corpus.py" for bucket in GradeBucket})
    writers: dict[str, set] = {label: set() for label in owner_of}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value in owner_of:
                    writers[node.value].add(path.relative_to(SRC).as_posix())
    assert writers == {label: {owner} for label, owner in owner_of.items()}


def test_report_file_names_are_written_once_in_report():
    # the report stage's declared outputs and the files it writes both come
    # from report.TABLES, so a table cannot be renamed in one and not the other
    names = {Path(path).name for path in report.TABLES}
    assert len(names) == len(report.TABLES) == 10
    writers: Counter = Counter()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for name in names:
                    if name in node.value:
                        writers[(name, path.relative_to(SRC).as_posix())] += 1
    assert writers == {(name, "taskshift/report.py"): 1 for name in names}
