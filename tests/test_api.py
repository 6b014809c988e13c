"""The package's public API is the union of its layers' ``__all__`` lists,
and README's library section uses only that API."""

import ast
import pathlib
import re

import matvar
from matvar import commutators, geometry, linalg, norms, radii, suites

LAYERS = (linalg, norms, geometry, radii, commutators, suites)


def test_every_layer_name_is_the_package_name():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(matvar, name) is getattr(layer, name), (layer.__name__, name)


def test_package_all_is_the_union_of_the_layer_lists():
    assert len(matvar.__all__) == len(set(matvar.__all__))
    assert set(matvar.__all__) == {name for layer in LAYERS for name in layer.__all__}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from matvar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(matvar.__all__)


# The functions and classes README's "Library use" section presents as library API.
README_API = {"is_hermitian", "as_density", "as_unit_vector", "radius", "numerical_radius",
              "central_numerical_radius", "two_largest_radius", "enclosing_circle",
              "max_variance_distribution", "numerical_range", "membership_in_range",
              "hull_membership_margin", "quantum_variance", "evaluate_bounds", "f_ratio_bounds",
              "ConvergenceError"}


def test_readme_library_use_runs_on_the_public_api(capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = {alias.name for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom)
                and node.module == "matvar" for alias in node.names}
    assert imported and imported | README_API <= set(matvar.__all__)
    for name in README_API:
        assert f"`{name}`" in section, name
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("0.7071") and out[-1] == "1.0"  # r_C(E12) = 1/sqrt(2), as the block's comment says
    # the private helpers the section names by module still exist
    for layer, name in re.findall(r"`(\w+)\.(_\w+)`", section):
        assert hasattr(getattr(matvar, layer), name), (layer, name)


def test_every_verify_check_reads_its_trial():
    # a check that reads neither its generator nor its trial index repeats one computation on every trial
    tree = ast.parse(pathlib.Path(suites.__file__).read_text(encoding="utf-8"))
    checks = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")]
    assert len(checks) == len(suites._SUITES["all"])
    for check in checks:
        read = {n.id for n in ast.walk(check) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assert read & {"rng", "trial"}, check.name


def test_sources_parse_as_python_3_10():
    # pyproject allows Python 3.10: every source and test file must parse in its
    # grammar.  This checks syntax only, not which library calls 3.10 provides
    root = pathlib.Path(__file__).resolve().parents[1]
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_every_source_module_uses_what_it_imports():
    # an imported name that no line reads, such as a function whose last call
    # went, is dead code; a name in the module's __all__ is a re-export
    for path in sorted(pathlib.Path(matvar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    and isinstance(node.value, ast.List) for elt in node.value.elts}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - read - exported - {"*", "annotations"} == set(), path.name
