"""The package's import graph: no cycle, no lazy or type-checking-only imports,
and no third-party import that pyproject.toml does not declare; the token
rule's one owner; and who builds spans without the token check."""

import ast
from collections import Counter
import re
import sys
from pathlib import Path

from gec_editkit import decode, transforms

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gec_editkit"


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _relative_imports(name, tree):
    """Package modules ``name`` imports relatively, wherever the statement sits."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is not None:
            found.add(node.module.split(".")[0])
        else:  # from . import a, b
            found.update(alias.name for alias in node.names)
    found.discard(name)
    return found


def _find_cycle(graph):
    """One import cycle as [a, b, ..., a], or None."""
    state = {}  # module -> "open" while on the DFS path, "done" after

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path + [nxt])
                if cycle is not None:
                    return cycle
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state:
            cycle = visit(start, [start])
            if cycle is not None:
                return cycle
    return None


def test_import_graph_has_no_cycle():
    trees = _trees()
    graph = {name: _relative_imports(name, tree) & trees.keys() for name, tree in trees.items()}
    cycle = _find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)
    # the encoder applies tags through transforms, not through the decoder
    assert "transforms" in graph["align"] and "decode" not in graph["align"]


def test_no_module_imports_type_checking():
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "typing":
                assert "TYPE_CHECKING" not in {alias.name for alias in node.names}, name


def test_no_import_inside_a_function():
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), f"{name}.{func.name} imports lazily"


def test_decode_reexports_apply_tags():
    # one function, reachable under both names (tracing wraps decode.apply_tags)
    assert decode.apply_tags is transforms.apply_tags


def _declared_dependencies():
    """Import names of the ``[project] dependencies`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r"^dependencies = (\[.*?\])$", text, re.MULTILINE | re.DOTALL)
    assert match, "pyproject.toml has no [project] dependencies list"
    return {re.split(r"[<>=!~\[; ]", spec, maxsplit=1)[0].replace("-", "_").lower()
            for spec in ast.literal_eval(match.group(1))}


def test_every_third_party_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"gec_editkit"} | _declared_dependencies()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert roots <= allowed, f"{name} imports {sorted(roots - allowed)}, not a declared dependency"


def _whitespace_checks(tree):
    """Lines of ``tree`` that test for whitespace: ``.isspace``, ``string.whitespace``,
    or a comparison with an argument-free ``.split()``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("isspace", "whitespace"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "string":
            lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            for side in (node.left, *node.comparators):
                if (isinstance(side, ast.Call) and isinstance(side.func, ast.Attribute)
                        and side.func.attr == "split" and not side.args and not side.keywords):
                    lines.append(node.lineno)
    return lines


def test_only_spans_checks_for_whitespace():
    # The token rule ("non-empty, no whitespace") is stated once, in
    # spans.is_token; every other module asks it.
    trees = _trees()
    assert _whitespace_checks(trees["spans"]), "the owner's own check is not recognised"
    for name, tree in trees.items():
        if name != "spans":
            assert not _whitespace_checks(tree), f"{name} checks for whitespace itself at lines {_whitespace_checks(tree)}"


def _uses(tree, name):
    """Whether ``tree`` names ``name``: as a variable, an attribute or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.ImportFrom) and name in {alias.name for alias in node.names}:
            return True
    return False


def test_only_align_and_the_m2_reader_build_unchecked_spans():
    # spans._span skips the token check, so only code that has checked the
    # replacement's tokens itself may call it: align (the target, once per
    # pair) and corpus (each M2 replacement, as it splits it).
    trees = _trees()
    assert _uses(trees["spans"], "_span"), "the builder's own module does not name it"
    users = {name for name, tree in trees.items() if name != "spans" and _uses(tree, "_span")}
    assert users == {"align", "corpus"}


def test_three_sites_build_unchecked_tag_sequences():
    # tags._tag_seq skips TagSeq's per-tag checks, so only code whose tags are
    # vocab entries or interned constructors' results, with START of
    # START_KINDS by construction, may call it: the decoder's selection
    # (START masked) and the encoder (its passes and its all-KEEP sequences).
    trees = _trees()
    assert _definition(trees["tags"], ast.FunctionDef, "_tag_seq")
    users = {name for name, tree in trees.items() if name != "tags" and _uses(tree, "_tag_seq")}
    assert users == {"align", "decode"}
    sites = Counter(
        (name, func.name)
        for name in users
        for func in trees[name].body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_tag_seq"
    )
    assert sites == {("decode", "select_batch"): 1, ("align", "_tags"): 1, ("align", "_encode_batch"): 1}
    # Named anywhere else (passed on, aliased), it would escape the count above.
    named = sum(1 for name in users for node in ast.walk(trees[name])
                if isinstance(node, ast.Name) and node.id == "_tag_seq")
    assert named == sum(sites.values())


def _definition(tree, kind, name):
    """The ``kind`` (ast.ClassDef, ast.FunctionDef) named ``name`` in ``tree``."""
    return next(node for node in ast.walk(tree) if isinstance(node, kind) and node.name == name)


def _attributes(tree, name):
    """The ``.name`` attribute nodes in ``tree``: every ``x.name``, called or not."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == name]


def test_taggers_are_met_through_predict_batch():
    # Every batch decoder calls a tagger's predict_batch; only run_pipeline,
    # the one-sentence entry, calls predict.  No module looks a tagger's
    # methods up by name (getattr, hasattr, methodcaller), so no tagger can
    # be served by a fallback for a method it lacks.
    trees = _trees()
    protocol = _definition(trees["tagger"], ast.ClassDef, "Tagger")
    methods = {node.name for node in protocol.body if isinstance(node, ast.FunctionDef)}
    assert methods == {"predict", "predict_batch"}
    run_pipeline = _definition(trees["decode"], ast.FunctionDef, "run_pipeline")
    assert len(_attributes(run_pipeline, "predict")) == 1, "run_pipeline no longer predicts through predict"
    users = {name: len(_attributes(tree, "predict")) for name, tree in trees.items() if _attributes(tree, "predict")}
    assert users == {"decode": 1}, f".predict outside decode.run_pipeline: {users}"
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in methods:
                raise AssertionError(f"{name} names the tagger method {node.value!r} in a string at line {node.lineno}")
