"""Guard against definitions that only the tests call.

Every function, class and method under src/degenmatch must be referenced
somewhere in src/ (as a name or an attribute), or have an ALLOWED entry that
gives its reason. Being exported by degenmatch.__all__ is not a reason: a
helper that only the tests need belongs in tests/."""

import ast
from pathlib import Path

import degenmatch

# (module, qualified name) -> why it stays without a caller in src/
ALLOWED = {
    ("chordal", "is_perfect_elimination"):
        "benchmarks/tracer.py wraps it as chordal.peo_check",
    ("cli", "_Parser.error"): "argparse calls it on a usage error",
}


def _scan():
    """(every name src/ references, [(module, qualified, bare name)] of every
    def and class in src/, nested ones too)."""
    referenced, defined = set(), []

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, prefix + child.name, child.name))
                walk(module, child, prefix + child.name + ".")
            else:
                walk(module, child, prefix)

    for path in sorted(Path(degenmatch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        walk(path.stem, tree, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced, defined


def test_every_definition_has_a_caller_in_src():
    referenced, defined = _scan()
    unused = ["%s.%s" % (module, qualified)
              for module, qualified, name in defined
              if name not in referenced
              and not (name.startswith("__") and name.endswith("__"))
              and (module, qualified) not in ALLOWED]
    assert unused == []


def test_allowlist_is_current():
    # an allowed name that is deleted, or gains a caller, leaves the list
    referenced, defined = _scan()
    for module, qualified in ALLOWED:
        name = qualified.rsplit(".", 1)[-1]
        assert (module, qualified, name) in defined
        assert name not in referenced
