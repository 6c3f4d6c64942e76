"""Rules that the package source itself must keep."""

import ast
import dataclasses
import pathlib

import delaystab
from delaystab.simulate import Trajectory

SRC = pathlib.Path(delaystab.__file__).parent


def test_package_source_has_no_assert_statements():
    # `python -O` strips assert statements, so a runtime check written as
    # one would quietly go away; checks raise real exceptions instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _bound_names(node) -> list[str]:
    # `import a.b` binds `a`; `from m import x as y` binds `y`
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_package_modules_use_every_name_they_import():
    # the benchmark's tracer rebinds module globals by name, so a leftover
    # import would keep a wrapped name alive that the module never calls;
    # __init__.py imports only to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno} {name}"
                  for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                  for name in _bound_names(node) if name not in used]
    assert found == []


def test_package_exports_exactly_what_it_imports():
    # a deleted function must not linger in __all__, and nothing is
    # imported into the package namespace without being exported
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    assert sorted(imported) == sorted(delaystab.__all__)


def test_package_defines_one_right_hand_side():
    # every family is one ConcreteSystem, so a per-kind `rhs` body cannot return
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "rhs"]
    assert len(found) == 1, found


def test_no_module_names_a_second_constant_or_step_cap_bound():
    # one catalog class is every constant function, and the integrator caps
    # the step by the reads' declared bounds, the ones `read_time` holds each
    # lag to, not by a smallest bound of the lag objects' own
    gone = {"ConstantCoeff", "ConstantLag", "min_positive_lag_bound"}
    found = [f"{path.name}:{node.lineno} {name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in gone & {getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "name", None)}]
    assert found == [], found


def test_no_module_names_a_second_spec_error_or_layout():
    # each spec type declares its arrays and rules once, on the class, and
    # every broken rule is an InvalidSpecError naming one of its fields
    gone = {"SpecRuleError", "_set_arrays", "_eq", "_RULES", "_GROUPS"}
    found = [f"{path.name}:{node.lineno} {name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in gone & {getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "name", None)}]
    assert found == [], found


def test_package_fits_decay_at_one_site():
    # simulate and sweep --simulate report the same observed rate, so they
    # share one fit toward one reference
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("fit_decay")]
    assert len(found) == 1, found


def test_package_solves_one_linear_system():
    # the checked witness of `linalg.witness_test` is the only M-matrix
    # decision, so its solve is the package's one `np.linalg.solve` call
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.solve"]
    assert len(found) == 1, found


def test_integrator_step_loop_makes_no_numpy_call():
    # a step works on 2 to 16 floats, where each numpy call costs more than
    # the arithmetic: the step loop of `_Integrator.run` runs on Python floats
    tree = ast.parse((SRC / "simulate.py").read_text())
    run = next(node for cls in tree.body if isinstance(cls, ast.ClassDef)
               and cls.name == "_Integrator" for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    loops = [node for node in ast.walk(run) if isinstance(node, ast.For)]
    found = [f"simulate.py:{node.lineno} {ast.unparse(node)}"
             for loop in loops for node in ast.walk(loop)
             if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "np"]
    assert loops and found == [], found


def test_integrator_step_loop_calls_no_time_function():
    # rates, coefficients and lags depend on t alone, so they are evaluated,
    # range-checked and placed for a block of stage times at once: neither the
    # step loop of `_Integrator.run`, nor the integrator methods it calls, nor
    # the system's `rhs` calls one of them, `read_time` or `_place`
    methods = {node.name: node for name in ("simulate.py", "systems.py")
               for cls in ast.parse((SRC / name).read_text()).body
               if isinstance(cls, ast.ClassDef) and cls.name in ("_Integrator", "ConcreteSystem")
               for node in cls.body if isinstance(node, ast.FunctionDef)}
    # the step loop is the innermost loop that advances the state x
    loops = [node for node in ast.walk(methods["run"]) if isinstance(node, ast.For)
             and any(isinstance(n, ast.Assign) and "x" in map(ast.unparse, n.targets)
                     for n in ast.walk(node))]
    todo, seen, found = [loops[-1]], set(), []
    while todo:
        for call in (n for n in ast.walk(todo.pop()) if isinstance(n, ast.Call)):
            name = ast.unparse(call.func).split(".")[-1]
            if name in ("read_time", "_place", "mu", "c", "lag"):
                found.append(ast.unparse(call))
            elif name in methods and name not in seen:
                seen.add(name)
                todo.append(methods[name])
    assert loops and found == [], found


def test_integrator_tabulates_whole_columns_and_files_no_read():
    # a block's table reads are classified as whole columns and zipped into one
    # flat list, so `_Integrator._tabulate` appends nothing, its loops run over
    # the time functions and the table lags, and its comprehensions over columns
    tree = ast.parse((SRC / "simulate.py").read_text())
    tabulate = next(node for cls in tree.body if isinstance(cls, ast.ClassDef)
                    and cls.name == "_Integrator" for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_tabulate")
    nodes = list(ast.walk(tabulate))
    appends = [f"simulate.py:{node.lineno}" for node in nodes if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr == "append"]
    loops = [ast.unparse(node.iter if isinstance(node, ast.For) else node) for node in nodes
             if isinstance(node, (ast.For, ast.While))]
    columns = {ast.unparse(node.iter) for node in nodes if isinstance(node, ast.comprehension)}
    assert appends == [], appends
    assert loops == ["enumerate(self.time_functions)", "enumerate(self.table_lags)"], loops
    assert columns <= {"self.table", "columns"}, columns


def test_integrator_computes_stage_times_at_one_site():
    # the time functions and the table reads of a block share its stage times:
    # one formula adds the half step to a time
    tree = ast.parse((SRC / "simulate.py").read_text())
    half_steps = [f"simulate.py:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                  and ast.unparse(node.right).startswith("0.5 *")]
    assert len(half_steps) == 1, half_steps


def test_no_module_reads_a_largest_lag_bound_of_the_lags_own():
    # `read_time` holds each read to its declared bound, so the node window is
    # sized from those; a largest bound of the lag objects' own could be
    # shorter than a read that passes its check
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "max_lag_bound"]
    assert found == [], found


def test_specio_calls_no_spec_class_by_name():
    # each kind's spec class comes from one table, and specio builds every
    # spec in one call through it
    classes = {"GeneralSystemSpec", "LinearSystemSpec", "BamSpec"}
    path = SRC / "specio.py"
    found = [f"{path.name}:{node.lineno} {node.func.id}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in classes]
    assert found == [], found


def test_two_neuron_scalar_names_are_spelled_once():
    # a two_neuron document is the one-unit bam written in scalars; its
    # coupling names live in one table, which every one-unit spec is parsed by
    found = [f"{path.name}:{number}"
             for path in sorted(SRC.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if ("coupling_xy" in line or "coupling_yx" in line)
             and not (path.name == "specio.py" and line.startswith("_SCALAR_NAMES = "))]
    assert found == [], found


def test_no_module_defines_a_second_screen_or_one_unit_constructor():
    # `is_m_matrix` reports the one dominance screen, and a one-unit spec
    # comes from a two_neuron document
    gone = {"dominance_screen", "two_neuron_spec", "SCREEN_WEIGHTED_COLUMN"}
    found = [f"{path.name}:{node.lineno} {name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in gone & {getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "name", None)}]
    assert found == [], found


def test_history_is_one_vector_and_a_trajectory_holds_no_derivatives():
    # a document gives its initial history as one state vector, which no
    # module wraps or calls, and no reader takes node derivatives from a run
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if "ConstantHistory" in {getattr(node, "id", None), getattr(node, "attr", None),
                                      getattr(node, "name", None)}
             or isinstance(node, ast.Call) and ast.unparse(node.func).endswith("history")]
    assert found == [], found
    assert [f.name for f in dataclasses.fields(Trajectory)] == ["times", "states", "meta"]
