"""Every mlplr name the acceptance suite and the benchmark use resolves.

The tier-1 command runs with --continue-on-collection-errors, so a name
trimmed from the package would turn the whole acceptance file into one
collection error instead of a failing test. This reads the imports, the
dotted ``mlplr.`` references and the (owner, "attribute") pairs the span
tracer wraps from those files, without running them. It binds the
arguments of every call to an mlplr name in those files to the callee's
signature, so a removed or renamed keyword fails here and not only in a
run. It also pins the leading parameters of the functions whose arguments
the tracer's hooks read by position.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]


def _dotted(node: ast.Attribute) -> str | None:
    parts = [node.attr]
    while isinstance(node.value, ast.Attribute):
        node = node.value
        parts.append(node.attr)
    if isinstance(node.value, ast.Name) and node.value.id == "mlplr":
        return ".".join(["mlplr", *reversed(parts)])
    return None


def _references(path: Path) -> set[str]:
    """Dotted names: mlplr.<module>.<name> for each imported name, every
    attribute chain that starts at the name mlplr, and owner.attribute
    for each (mlplr owner, "attribute") tuple."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "mlplr":
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names if alias.name.split(".")[0] == "mlplr")
        elif isinstance(node, ast.Attribute) and (name := _dotted(node)) is not None:
            out.add(name)
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            # (owner, "attribute", ...) pairs, as in perfbench/spans.py BOUNDARIES
            owner, attr = node.elts[:2]
            base = "mlplr" if isinstance(owner, ast.Name) and owner.id == "mlplr" else None
            if isinstance(owner, ast.Attribute):
                base = _dotted(owner)
            if base and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                out.add(f"{base}.{attr.value}")
    return out


def _resolve(dotted: str):
    """The object a dotted name names, importing submodules on the way;
    LookupError if there is none."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[: i + 1]))
            except ModuleNotFoundError:
                raise LookupError(dotted) from None
        if not hasattr(obj, part):
            raise LookupError(dotted)
        obj = getattr(obj, part)
    return obj


def _resolves(dotted: str) -> bool:
    try:
        _resolve(dotted)
    except LookupError:
        return False
    return True


def _unbound_calls(source: str) -> list[str]:
    """Calls to an mlplr name (one imported from mlplr, or an attribute
    chain from the name mlplr) whose arguments do not bind to the
    callee's signature: an unknown keyword, or too many positional
    arguments. Missing ones are left to the run; a name that does not
    resolve is test_mlplr_names_resolve's to report."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "mlplr"
        for alias in node.names
    }
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = imported.get(func.id) if isinstance(func, ast.Name) else _dotted(func) if isinstance(func, ast.Attribute) else None
        if name is None or not _resolves(name):
            continue
        n_pos = 0 if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        try:
            inspect.signature(_resolve(name)).bind_partial(*[None] * n_pos, **{kw.arg: None for kw in node.keywords if kw.arg})
        except TypeError as exc:
            bad.append(f"line {node.lineno}: {name}: {exc}")
    return bad


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_mlplr_names_resolve(path):
    missing = sorted(name for name in _references(path) if not _resolves(name))
    assert not missing, f"{path.name} uses names mlplr does not define: {missing}"


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_mlplr_calls_bind_to_their_signatures(path):
    bad = _unbound_calls(path.read_text())
    assert not bad, f"{path.name} calls mlplr with arguments its signatures do not take: {bad}"


def test_the_binding_check_sees_keywords():
    """It binds imported names and mlplr attribute chains, classes
    included, and reports a keyword the callee lacks."""
    ok = (
        "import mlplr\nfrom mlplr import ConstraintBox\nfrom mlplr.limit_law import extended_grid\n"
        "box = ConstraintBox(eta=0.1, M=50.0, positive_amplitudes=True)\n"
        "extended_grid(box, 1, n_angles=8, radii=(2.0,))\nmlplr.simulate_limit(1, 2, 3, 4, 5, extended=True)\n"
    )
    assert _unbound_calls(ok) == []
    assert len(_unbound_calls(ok.replace("positive_amplitudes", "positive").replace("n_angles", "angles"))) == 2
    assert len(_unbound_calls(ok.replace("extended=True", "extended=True, signs=(1,)"))) == 1
    assert len(_unbound_calls("import mlplr\nmlplr.gram_matrix_gh(1, 2, 3)\n")) == 1  # one positional too many


def test_the_guard_sees_the_acceptance_imports():
    refs = _references(ROOT / "tests" / "test_acceptance.py")
    assert {"mlplr.simulate_limit", "mlplr.run_replicates", "mlplr.limit_law.extended_grid"} <= refs
    assert not _resolves("mlplr.project_to_box")
    spans = _references(ROOT / "perfbench" / "spans.py")
    assert {"mlplr.harness.penalty_value", "mlplr.limit_law._ConeMaximizer.values_with_columns"} <= spans


# The span tracer's hooks read these arguments by position; a reordered
# parameter would make them count the wrong thing without failing.
HOOK_LAYOUTS = [
    ("mlplr.limit_law._ConeMaximizer.values_with_columns", ["self", "g", "cols", "v_lin"]),
    ("mlplr.estimation.fit_mle", ["data", "k", "box", "config"]),
    ("mlplr.simulate_limit", ["spec", "k"]),
    ("mlplr.estimation.project_vector", ["vec"]),
]


@pytest.mark.parametrize("dotted, leading", HOOK_LAYOUTS, ids=[name for name, _ in HOOK_LAYOUTS])
def test_hooked_functions_keep_their_positional_layout(dotted, leading):
    module, _, rest = dotted.partition(".")
    obj = importlib.import_module(module)
    for part in rest.split("."):
        obj = getattr(obj, part)
    params = list(inspect.signature(obj).parameters.values())[: len(leading)]
    assert [p.name for p in params] == leading
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)


def _perfbench_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _perfbench_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_sizes_match_the_reference(name):
    """The benchmark compares a run with perfbench/reference.json only when
    the workload's sizes, FitConfig.to_dict() among them, equal the
    recorded ones; otherwise it skips the comparison instead of failing."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert json.loads(json.dumps(WORKLOADS[name]().sizes())) == reference["workloads"][name]["sizes"]
