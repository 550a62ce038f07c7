"""The public surface of `abdirac`: what each module exports, how many knobs,
the library names the benchmark under `perfbench/` calls, and which parts of
scipy an import and the packet path load.

The checks read the source with `ast`, so they see exactly what a reader of
the package sees.  A new defaulted parameter of a public function has to raise
`MAX_PUBLIC_DEFAULTS` here, which makes every new knob a visible decision.
"""

import ast
import dataclasses
import importlib
import pathlib
import textwrap

import pytest

from abdirac.model import Kinematics
from _helpers import run_python

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "abdirac"
BENCH = ROOT / "perfbench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# defaulted parameters (positional defaults plus keyword-only ones) over every
# `def` in src/abdirac whose name has no leading underscore
MAX_PUBLIC_DEFAULTS = 26


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


def test_one_scale_no_public_function_takes_hbar_or_c():
    # both layers work on one inverse-length scale: the packet layer takes
    # `mass` = M / hbar, the Dirac layer E / hbar c and Mc / hbar (specfun's
    # `c` is Kummer's parameter in F(a|c|z), not a unit)
    takes_units = [f"{module}.{node.name}" for module, node in _public_functions()
                   if module != "specfun"
                   and {"hbar", "c"} & {a.arg for a in node.args.args + node.args.kwonlyargs}]
    assert takes_units == []
    assert [f.name for f in dataclasses.fields(Kinematics)] == ["energy_E", "mass_M", "k"]


def _bench_names() -> tuple[set[str], set[str]]:
    """'module.name' for each library name the benchmark uses: the traced
    functions of `tracing.TARGETS`, and in `workloads.py` every name imported
    from an abdirac module and every attribute of an imported one."""
    targets = set()
    for node in ast.walk(_tree(BENCH / "tracing.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            targets.update(ast.literal_eval(node.value))
    tree = _tree(BENCH / "workloads.py")
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "abdirac":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("abdirac."):
            used.update(f"{node.module.removeprefix('abdirac.')}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            used.add(f"{aliases[node.value.id]}.{node.attr}")
    return targets, used


def test_benchmark_library_names_resolve():
    # a library change that renames or drops one of these breaks a traced
    # benchmark run, which no other test imports
    targets, used = _bench_names()
    assert targets and used
    missing = [name for name in sorted(targets | used)
               if not hasattr(importlib.import_module(f"abdirac.{name.split('.')[0]}"),
                              name.split(".")[1])]
    assert missing == []


def test_every_error_type_is_raised():
    # a class in errors.py that no `raise` in the package names is dead API:
    # callers would catch an error that can never arrive
    defined = {node.name for node in _tree(SRC / "errors.py").body
               if isinstance(node, ast.ClassDef)} - {"AbdiracError"}
    raised = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert defined and sorted(defined - raised) == []


def test_scipy_loads_only_where_a_call_needs_it():
    # a fresh interpreter, since this one has long loaded scipy: the packet
    # path above the switch point X0 takes its kernel from propagate's own
    # Hankel expansion, and a partial-wave row below j_{0,1} normalises its
    # recurrence by Neumann's sum, so neither an import nor those paths load
    # scipy; a row from k r = j_{0,1} on makes one bessel_j call
    code = textwrap.dedent("""
        import importlib, math, pkgutil, sys
        import abdirac
        for module in pkgutil.iter_modules(abdirac.__path__):
            importlib.import_module(f"abdirac.{module.name}")
        from abdirac import bare_tube as bt, propagate as pr, scattering as sc, specfun as sf
        from abdirac.model import Coupling, SpinorAmplitudes, TubeConfig, make_kinematics

        def loaded():
            return [m for m in ("scipy", "scipy.special", "scipy.integrate") if m in sys.modules]

        coupling = Coupling(0.37)
        cfg = pr.PacketConfig(delta=4.0, rho0=55.0, theta0=0.0, k=13.0)
        pr.suppression_scan(cfg, [0.0, 5.0, 8.0], coupling, use_quadrature=True)
        pr.delta_closed(cfg, coupling, 1.0, cfg.rho0, 0.0, pr.peak_time(cfg, cfg.rho0))
        pr.transit_fit(cfg, coupling)
        print(loaded())
        amp, kin1 = SpinorAmplitudes(1.0, 0.5j), make_kinematics(k=1.0)
        for kind in ("bare", "shielded"):
            for alpha, r in ((0.37, 1e-3), (-1.62, 0.5), (1.62, 2.4)):
                sc.dirac_scattering_state(kind, amp, Coupling(alpha), kin1, r, [0.1, 2.0])
        print(loaded())
        sc.dirac_scattering_state("bare", amp, coupling, kin1, sc._J0_ZERO, [0.1, 2.0])
        print(loaded(), sf._sp is sys.modules["scipy.special"])
        kin = make_kinematics(E=math.sqrt(2.0))
        bt.ode_radial_oracle(0, 1, TubeConfig(r0=0.1, coupling=Coupling(0.3)), kin, r_max=0.2)
        print(loaded())
    """)
    assert run_python(code).splitlines() == [
        "[]",
        "[]",
        "['scipy', 'scipy.special'] True",
        "['scipy', 'scipy.special', 'scipy.integrate']",
    ]
