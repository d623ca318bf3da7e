"""Source hygiene: every module of the package uses each name it imports,
every private name it defines is referenced, and every public function checks
the thresholds, counts, seeds and indices it takes."""

import ast
from pathlib import Path

import numpy as np
import pytest

from speccert import (
    ControlPath,
    PreconditionError,
    certify_connectedness,
    climb,
    closure,
    ensemble_genericity,
    generators_from,
    plan_passage,
    propagate,
    test_conicality,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "speccert"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements in ``source`` that no expression references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_unused_names():
    source = "import json\nimport numpy as np\nfrom x import a, b\nb(np.pi)\n"
    assert unused_imports(source) == ["a", "json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> dict:
    """Module-level private names of ``tree``, each with the statement that binds it."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = stmt
    return found


def unreferenced_private_names(sources: dict) -> list:
    """``module:name`` of module-level private names that no other statement references.

    A reference is a name read, an attribute of that name, or an import of it;
    a name used only inside its own definition (say, by recursion) is unreferenced.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = []
    for tree in trees.values():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
            references.append((stmt, names))
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, owner in private_definitions(tree).items()
        if not any(name in names for stmt, names in references if stmt is not owner)
    )


def test_private_checker_flags_dead_names():
    sources = {
        "a": "_LIMIT = 3\n_kept = 1\ndef _walk(k):\n    return _walk(k - 1)\n",
        "b": "from .a import _kept\n",
    }
    assert unreferenced_private_names(sources) == ["a:_LIMIT", "a:_walk"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def private_calls_across_modules(source: str, function: str) -> list:
    """Names that ``function`` in ``source`` calls among the private names its
    module imports from another module of the package."""
    tree = ast.parse(source)
    imported = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
        if a.name.startswith("_")
    }
    (fn,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    called = {
        node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    return sorted(called & imported)


def test_cross_module_checker_flags_a_planted_call():
    source = (
        "from .a import _hidden, public\n"
        "from numpy import _private\n"
        "def _local():\n    pass\n"
        "def run(H):\n    _local()\n    _private()\n    public(H)\n    return _hidden(H)\n"
    )
    assert private_calls_across_modules(source, "run") == ["_hidden"]


def test_certify_runs_each_stage_through_its_public_entry_point():
    # each stage is then a call the benchmark's tracer can wrap and time
    source = (PACKAGE / "certify.py").read_text()
    assert private_calls_across_modules(source, "certify") == []


def test_only_operators_splits_drift_from_controls():
    # every other module reads a family through its operator stack and cached norms
    split = {"drift", "controlled", "operator_norm"}
    found = sorted(
        f"{path.name}:{node.lineno}:{node.attr}"
        for path in MODULES
        if path.name != "operators.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in split
    )
    assert found == []


def file_writes(source: str) -> list:
    """Line numbers in ``source`` that encode JSON, write CSV or text, or open a file."""
    writes = {"dump", "dumps", "writer", "write_text"}
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr in writes)
        or (
            isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) == "open")
        )
    )


def test_write_checker_flags_every_writer():
    source = (
        "import csv, json\n"
        "json.dump(d, fh)\n"
        "text = json.dumps(d)\n"
        "w = csv.writer(fh)\n"
        "Path(p).write_text(text)\n"
        "with open(p) as fh:\n"
        "    pass\n"
        "Path(p).open()\n"
        "json.loads(text)\n"
    )
    assert file_writes(source) == [2, 3, 4, 5, 6, 8]


def test_only_operators_writes_documents():
    # one writer decides key order, indentation, non-finite numbers and float
    # format for every JSON and CSV file the package writes
    found = [
        f"{path.name}:{line}"
        for path in MODULES
        if path.name != "operators.py"
        for line in file_writes(path.read_text())
    ]
    assert found == []


# parameters that set a threshold, radius or speed: a nan, infinite or
# non-positive value would turn a verdict silently
THRESHOLDS = {
    "tau_deg", "tau_res", "tau_edge", "rank_tol", "c_min", "residual_max",
    "step_bound", "step_limit", "rho", "epsilon", "delta", "perturbation", "t0", "box_halfwidth",
}
# parameters that count, seed or index: a float, a bool or a value out of
# range would index between levels, wrap round, or reach numpy as a bare error
INTEGERS = {
    "level", "rng_seed", "seed_budget", "budget", "n_directions", "max_records", "trials",
    "seeds_per_level", "count", "seed",
}


def _check_calls(node: ast.AST, check: str) -> list:
    """The calls of the function named ``check`` in ``node``."""
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == check
    ]


def _labels(label: ast.AST, value: ast.AST) -> bool:
    """Whether ``label`` is the string naming the variable ``value``."""
    return isinstance(label, ast.Constant) and label.value == getattr(value, "id", None)


def _checked_names(fn: ast.FunctionDef, check: str) -> set:
    """Names ``fn`` passes to ``check`` with their own name as the label, one at a
    time or in a loop ``for name, value in (("a", a), ...)`` around the call."""
    checked = {call.args[1].id for call in _check_calls(fn, check) if _labels(*call.args[:2])}
    for loop in ast.walk(fn):
        if not (isinstance(loop, ast.For) and isinstance(loop.iter, (ast.Tuple, ast.List))):
            continue
        target = [getattr(t, "id", None) for t in getattr(loop.target, "elts", ())]
        calls = _check_calls(loop, check)
        if any([getattr(a, "id", None) for a in call.args[:2]] == target for call in calls):
            checked.update(
                pair.elts[1].id
                for pair in loop.iter.elts
                if len(getattr(pair, "elts", ())) == 2 and _labels(*pair.elts)
            )
    return checked


def unchecked_parameters(source: str, params: set, check: str) -> list:
    """``function:parameter`` for each of ``params`` that a public module-level
    function in ``source`` takes and does not pass to ``check``."""
    return sorted(
        f"{fn.name}:{param}"
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        for param in {a.arg for a in fn.args.args + fn.args.kwonlyargs} & params
        if param not in _checked_names(fn, check)
    )


def test_threshold_checker_flags_unchecked_parameters():
    source = (
        "def one(tau_res=None):\n"
        "    _check_tolerance('tau_res', tau_res)\n"
        "def looped(rho, delta, epsilon):\n"
        "    for name, value in (('rho', rho), ('delta', delta)):\n"
        "        _check_tolerance(name, value)\n"
        "def mislabelled(tau_edge, c_min):\n"
        "    _check_tolerance('c_min', tau_edge)\n"
        "def compared(step_limit):\n"
        "    if not step_limit > 0:\n"
        "        raise ValueError\n"
        "def _private(rank_tol):\n"
        "    pass\n"
    )
    assert unchecked_parameters(source, THRESHOLDS, "_check_tolerance") == [
        "compared:step_limit", "looped:epsilon", "mislabelled:c_min", "mislabelled:tau_edge",
    ]


def test_integer_checker_flags_unchecked_parameters():
    source = (
        "def one(budget, rng_seed=0):\n"
        "    _check_integer('budget', budget, 1)\n"
        "    _check_integer('rng_seed', rng_seed, 0)\n"
        "def wrong_check(level, trials):\n"
        "    _check_tolerance('level', level)\n"
        "    _check_integer('trials', trials, 1)\n"
        "def compared(seed_budget, n_directions=3):\n"
        "    if seed_budget < 1:\n"
        "        raise ValueError\n"
        "def _private(max_records):\n"
        "    pass\n"
    )
    assert unchecked_parameters(source, INTEGERS, "_check_integer") == [
        "compared:n_directions", "compared:seed_budget", "wrong_check:level",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_functions_check_their_thresholds(path):
    assert unchecked_parameters(path.read_text(), THRESHOLDS, "_check_tolerance") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_functions_check_their_integers(path):
    assert unchecked_parameters(path.read_text(), INTEGERS, "_check_integer") == []


def test_every_threshold_is_a_public_parameter():
    # a name no public function takes would be checked nowhere
    taken = {
        a.arg
        for path in MODULES
        for fn in ast.parse(path.read_text()).body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        for a in fn.args.args + fn.args.kwonlyargs
    }
    assert THRESHOLDS | INTEGERS <= taken


def _refusing_none(fn: ast.FunctionDef) -> set:
    """Names ``fn`` passes to ``_check_tolerance`` with their own name as the label
    and ``optional=False``, so that None is refused."""
    return {
        call.args[1].id
        for call in _check_calls(fn, "_check_tolerance")
        if _labels(*call.args[:2])
        and any(
            k.arg == "optional" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in call.keywords
        )
    }


def _without_none_default(fn: ast.FunctionDef) -> list:
    """Threshold parameters of ``fn`` whose default is not None: a number, or none at all."""
    args = fn.args
    defaults = [None] * (len(args.args) - len(args.defaults)) + args.defaults
    pairs = [*zip(args.args, defaults), *zip(args.kwonlyargs, args.kw_defaults)]
    return [
        a.arg
        for a, default in pairs
        if a.arg in THRESHOLDS and not (isinstance(default, ast.Constant) and default.value is None)
    ]


def thresholds_without_none_default(source: str) -> list:
    """``function:parameter`` for each threshold of a public module-level function in
    ``source`` whose default is a number or that has no default, so None has no meaning."""
    return sorted(
        f"{fn.name}:{param}"
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        for param in _without_none_default(fn)
    )


def none_admitting_thresholds(source: str) -> list:
    """The entries of ``thresholds_without_none_default`` whose function does not check
    them with ``optional=False``, so None would reach arithmetic as a bare TypeError."""
    functions = {fn.name: fn for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}
    return [
        entry
        for entry in thresholds_without_none_default(source)
        if entry.split(":")[1] not in _refusing_none(functions[entry.split(":")[0]])
    ]


def test_none_checker_flags_numeric_defaults_that_admit_none():
    source = (
        "def numeric(step_limit=0.5, rho=None):\n"
        "    _check_tolerance('step_limit', step_limit)\n"
        "    _check_tolerance('rho', rho)\n"
        "def required(epsilon, delta=1.0):\n"
        "    _check_tolerance('epsilon', epsilon, optional=False)\n"
        "    _check_tolerance('delta', delta, optional=True)\n"
        "def keyword(*, rank_tol=1e-9):\n"
        "    _check_tolerance('rank_tol', rank_tol, optional=False)\n"
    )
    assert thresholds_without_none_default(source) == [
        "keyword:rank_tol", "numeric:step_limit", "required:delta", "required:epsilon",
    ]
    assert none_admitting_thresholds(source) == ["numeric:step_limit", "required:delta"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_thresholds_without_none_default_refuse_none(path):
    assert none_admitting_thresholds(path.read_text()) == []


# parameters that hold a control point or a stack of them (``track``'s path too):
# each is read once, by the family's point check, which refuses ragged, boolean,
# string and non-finite input with a StructuralError
POINTS = {"u", "U", "u_star", "u_anchor"}
# lists of control points, read by ``conical._seed_array``: checked in private
# helpers too, since that helper is the one that reads them (``sampling``'s
# ``seeds`` are integer generator seeds, which no function converts with numpy)
POINT_LISTS = {"seeds", "hints"}


def _functions(tree: ast.Module):
    """(qualified name, node) of the module-level functions and the methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def raw_point_conversions(source: str) -> list:
    """``function:parameter`` for each control-point parameter that a public function
    or method in ``source`` converts with ``np.asarray`` or ``np.array`` itself, and
    for each list of points that any function or method converts so."""
    found = set()
    for name, fn in _functions(ast.parse(source)):
        params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        points = params & POINT_LISTS
        if not fn.name.startswith("_"):
            points |= params & (POINTS | ({"path"} if fn.name == "track" else set()))
        for call in ast.walk(fn):
            converts = (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("asarray", "array")
                and getattr(call.func.value, "id", None) == "np"
                and call.args
            )
            if converts:
                read = {n.id for n in ast.walk(call.args[0]) if isinstance(n, ast.Name)}
                found.update(f"{name}:{param}" for param in points & read)
    return sorted(found)


def test_point_checker_flags_raw_conversions():
    source = (
        "def raw(H, u):\n"
        "    u = np.asarray(u, dtype=float)\n"
        "def checked(H, u_star):\n"
        "    u_star = H._checked_point(u_star)\n"
        "def track(H, path):\n"
        "    U = np.array(list(path), dtype=float)\n"
        "def other(H, path, U, psi):\n"
        "    W = np.array(list(path), dtype=float)\n"
        "    V = np.array(U[0])\n"
        "    return np.asarray(psi)\n"
        "class Family:\n"
        "    def at(self, u):\n"
        "        return np.asarray(u) @ self.w\n"
        "    def _private(self, U):\n"
        "        return np.array(U, dtype=float)\n"
        "def _helper(u_anchor):\n"
        "    return np.asarray(u_anchor)\n"
        "def _read(H, seeds):\n"
        "    return np.array(list(seeds), dtype=float)\n"
        "def search(H, hints=None):\n"
        "    return np.asarray(hints)\n"
        "def checked(H, seeds, hints):\n"
        "    return _seed_array(H, itertools.chain(hints, seeds))\n"
    )
    assert raw_point_conversions(source) == [
        "Family.at:u", "_read:seeds", "other:U", "raw:u", "search:hints", "track:path",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_functions_read_points_through_the_family(path):
    assert raw_point_conversions(path.read_text()) == []


def small_float_literals(source: str) -> list:
    """``line:value`` of each float literal with 0 < |x| < 1e-3 in ``source``."""
    tree = ast.parse(source)
    return [
        f"{node.lineno}:{node.value!r}"
        for node in sorted(
            (n for n in ast.walk(tree) if isinstance(n, ast.Constant)), key=lambda n: n.lineno
        )
        if type(node.value) is float and 0 < abs(node.value) < 1e-3
    ]


def test_literal_checker_flags_a_planted_threshold():
    # a module-level table is flagged as any other literal is
    source = (
        "_P0 = (1.5e-4, -2.5e-9)\n"
        "LIMIT = 0.1\n"
        "def gap(x, y):\n"
        "    return x > 2.5e-4 * y and x < 1e-3 - 1e-9j and y > -3e-7\n"
    )
    assert small_float_literals(source) == ["1:0.00015", "1:2.5e-09", "4:0.00025", "4:3e-07"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "tolerance.py"], ids=lambda p: p.name
)
def test_thresholds_are_written_only_in_the_tolerance_policy(path):
    # every threshold and guard below 1e-3 is a named value of ``tolerance``
    assert small_float_literals(path.read_text()) == []


def _module_level_names(tree: ast.Module) -> set:
    """Names bound by the module-level assignments and function definitions of ``tree``."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_no_module_redefines_a_tolerance():
    policy = _module_level_names(ast.parse((PACKAGE / "tolerance.py").read_text()))
    found = sorted(
        f"{path.name}:{name}"
        for path in MODULES
        if path.name != "tolerance.py"
        for name in _module_level_names(ast.parse(path.read_text())) & policy
    )
    assert found == []


def test_tolerance_is_a_leaf():
    # every module reads the policy, so the policy reads no module but the errors
    tree = ast.parse((PACKAGE / "tolerance.py").read_text())
    imports = {
        (node.level, node.module) if isinstance(node, ast.ImportFrom) else (0, a.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }
    assert imports == {(0, "__future__"), (0, "numpy"), (1, "errors")}


def _certificate(H):
    return test_conicality(H, [0.0, 0.0], 1).certificate


# per module:function:parameter of ``thresholds_without_none_default``, a call on the
# two-level cone that passes None for that parameter and valid values otherwise
NONE_CALLS = {
    "adiabatic.py:climb:epsilon": lambda H: climb(
        H, certify_connectedness(H, 4), [0.5, 0.5], epsilon=None
    ),
    "adiabatic.py:plan_passage:epsilon": lambda H: plan_passage(
        H, _certificate(H), rho=0.1, epsilon=None
    ),
    "adiabatic.py:plan_passage:rho": lambda H: plan_passage(
        H, _certificate(H), rho=None, epsilon=0.1
    ),
    "adiabatic.py:propagate:step_limit": lambda H: propagate(
        H,
        ControlPath(waypoints=(np.array([0.1, 0.1]),), durations=np.array([1.0]), epsilon=1.0),
        np.array([1.0, 0.0]),
        step_limit=None,
    ),
    "certify.py:ensemble_genericity:box_halfwidth": lambda H: ensemble_genericity(
        3, 2, 2, 11, box_halfwidth=None
    ),
    "certify.py:ensemble_genericity:perturbation": lambda H: ensemble_genericity(
        3, 2, 2, 11, perturbation=None
    ),
    "conical.py:test_conicality:residual_max": lambda H: test_conicality(
        H, [0.0, 0.0], 1, residual_max=None
    ),
    "lie_closure.py:closure:rank_tol": lambda H: closure(generators_from(H), rank_tol=None),
}


def test_every_threshold_without_none_default_has_a_none_call():
    listed = {
        f"{path.name}:{entry}"
        for path in MODULES
        for entry in thresholds_without_none_default(path.read_text())
    }
    assert listed == set(NONE_CALLS)


@pytest.mark.parametrize("entry", sorted(NONE_CALLS))
def test_none_is_refused_where_the_default_is_not_none(two_level_cone, entry):
    # step_limit and residual_max raised a bare TypeError on None
    name = entry.rsplit(":", 1)[1]
    with pytest.raises(PreconditionError, match=f"{name} must be finite and positive, got None"):
        NONE_CALLS[entry](two_level_cone)
