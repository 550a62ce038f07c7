"""The public surface of `abdirac`: what each module exports, and how many knobs.

Both checks read the source with `ast`, so they see exactly what a reader of
the package sees.  A new defaulted parameter of a public function has to raise
`MAX_PUBLIC_DEFAULTS` here, which makes every new knob a visible decision.
"""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "abdirac"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# defaulted parameters (positional defaults plus keyword-only ones) over every
# `def` in src/abdirac whose name has no leading underscore
MAX_PUBLIC_DEFAULTS = 29


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _top_level_names(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if "__all__" in _top_level_names(_tree(p))],
                         ids=lambda p: p.stem)
def test_all_lists_every_public_name(path):
    # every public function, class and constant the module defines, and no other
    module = importlib.import_module(f"abdirac.{path.stem}")
    public = {n for n in _top_level_names(_tree(path)) if not n.startswith("_")}
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) == public


def _public_functions():
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_"):
                yield path.stem, node


def test_public_defaulted_parameters_within_bound():
    count = sum(len(node.args.defaults) + len(node.args.kwonlyargs)
                for _, node in _public_functions())
    assert count <= MAX_PUBLIC_DEFAULTS


def test_packet_layer_takes_mass_over_hbar_alone():
    # M and hbar enter the packet layer only as the ratio `mass` = M / hbar
    takes_hbar = [node.name for module, node in _public_functions()
                  if module == "propagate"
                  and "hbar" in {a.arg for a in node.args.args + node.args.kwonlyargs}]
    assert takes_hbar == []
