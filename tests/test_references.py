"""Every function, class and method in ``src/`` is used by ``src/``, or is listed here.

A definition counts as used when some ``Name`` or ``Attribute`` node in
``src/`` carries its name; the check reads the syntax tree, not the text,
so docstrings and comments do not count. Dunder methods are called by the
language and are left out. The match is by name alone, so a same-named
reference elsewhere hides a definition: the list errs short, never long.

The same reading checks that the exposure band cutoffs, the sink labels
and the grade buckets each have one owner.
"""

import ast
from pathlib import Path

from taskshift.corpus import GradeBucket

SRC = Path(__file__).resolve().parent.parent / "src"

# qualified name -> why it stays without a caller in src/
ALLOWED = {
    "taskshift.metrics.spearman": "acceptance criterion 9",
    "taskshift.metrics.krippendorff_alpha": "acceptance criterion 9",
    "taskshift.exposure.DecayWeights.from_values": (
        "acceptance criteria 2 and 3 weight tasks by the rounded reference weights"
    ),
    "taskshift.raking.WeightedSample.weighted_share": "acceptance criterion 4",
    "taskshift.savings.savings_from_shares": (
        "the reference oracle for sweep; acceptance criteria 3 and 5"
    ),
    "taskshift.pipeline.read_jsonl": (
        "the benchmark's JSONL read hook (bench/spans.py); the memory tests' size measure"
    ),
    "taskshift.pipeline.Pipeline.run_all": (
        "the library call that runs every stage; acceptance criterion 10"
    ),
}


def definitions_and_references() -> tuple[dict[str, str], set[str]]:
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, kinds):
                defined[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds):
                        defined[f"{module}.{node.name}.{member.name}"] = member.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_unreferenced_definitions_are_exactly_the_allowed_ones():
    defined, referenced = definitions_and_references()
    unreferenced = {
        qualified
        for qualified, name in defined.items()
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    }
    assert unreferenced == set(ALLOWED)


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
