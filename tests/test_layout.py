"""The layout of the package: no module reads a private name of another,
and values become exact vectors only at the boundary.

Each module keeps its private helpers to itself, so a decision such as how
a row is stored sits in the one module that owns it.  `integer_row` and
`fraction_row` convert between values and exact vectors; they are called
only where a value is read or written: the pair parser and serializer, the
catalog, the certificate readers and writers of `checks`, and `rho_eval`,
which reads its point.  The
constructors take exact vectors.  Between reading a value and writing one
the interior modules compute on ints: weights over their torus's
denominator, word times as pairs of ints, chambers and tempered lines as
integer vectors.  So they form a Fraction only where a value is read or
written: `frac` and `fraction_row`, the error polynomial of `eigensplit`,
`rho_eval`, the message of `quotient_weights`, the margin of
`decide_dominance` and the word times of `AdWord.to_json`.  A row of
values is read as an exact vector with `integer_row`, never as a list of
Fractions.
"""

import ast
from pathlib import Path

import liepair

PACKAGE = Path(liepair.__file__).resolve().parent


def is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def package_imports(tree):
    """(line, name) of each name that tree imports from a module of the
    package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "liepair"):
            for alias in node.names:
                yield node.lineno, alias.name


def private_imports(path):
    """`module:line name` for each private name that the module at `path`
    imports from a module of the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for lineno, name in package_imports(tree):
        if is_private(name):
            yield f"{path.name}:{lineno} {name}"


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_the_check_finds_a_private_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .linalg import _eliminate, rref\n"
                    "from liepair.weights import __doc__, _h_blocks\n"
                    "from math import _private\n")
    assert list(private_imports(path)) == ["mod.py:1 _eliminate",
                                           "mod.py:2 _h_blocks"]


CONVERTERS = {"integer_row", "fraction_row"}
BOUNDARY = {"pairfile", "catalog", "checks"}
# rho_eval reads the point it is given, a row of values, as an exact vector
POINT_READERS = {"weights": "rho_eval"}
EXACT_CONSTRUCTORS = {"algebra": "SubalgebraEmbedding.create",
                      "weights": "validate_torus",
                      "checks": "Pair.create",
                      "catalog": "complexify_pair"}


def converter_calls(tree):
    """The line of each call of `integer_row` or `fraction_row` in tree,
    by name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name in CONVERTERS:
                yield node.lineno


def functions(tree, prefix=""):
    """(qualified name, node) of each function and method in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, ast.FunctionDef):
                yield name, node
            yield from functions(node, name + ".")


def test_values_are_converted_only_at_the_boundary():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    callers = {name for name, tree in trees.items()
               if any(converter_calls(tree))}
    assert callers <= BOUNDARY | set(POINT_READERS)
    for module, qualified in POINT_READERS.items():
        (node,) = [n for name, n in functions(trees[module])
                   if name == qualified]
        assert sorted(converter_calls(node)) \
            == sorted(converter_calls(trees[module])), qualified
    for module, qualified in EXACT_CONSTRUCTORS.items():
        (node,) = [n for name, n in functions(trees[module])
                   if name == qualified]
        assert list(converter_calls(node)) == [], qualified


def test_the_check_finds_a_conversion():
    tree = ast.parse("from .linalg import integer_row\n"
                     "class A:\n"
                     "    def create(rows):\n"
                     "        return [linalg.fraction_row(r) for r in rows]\n"
                     "x = integer_row(y)\n")
    assert list(converter_calls(tree)) in ([4, 5], [5, 4])
    (node,) = [n for name, n in functions(tree) if name == "A.create"]
    assert list(converter_calls(node)) == [4]


FRACTION_WRITERS = {"linalg": {"frac", "fraction_row", "eigensplit"},
                    "weights": {"rho_eval", "quotient_weights"},
                    "polyhedral": {"decide_dominance"},
                    "checks": {"AdWord.to_json"},
                    "algebra": set(),
                    "catalog": set()}


def fraction_callers(tree):
    """The qualified name of the function around each call of `Fraction`
    in tree, by name or as an attribute; "<module>" for a call outside
    every function."""
    inside = {id(call): name for name, node in functions(tree)
              for call in ast.walk(node) if isinstance(call, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name == "Fraction":
                yield inside.get(id(node), "<module>")


def test_the_interior_forms_fractions_only_where_a_value_is_read_or_written():
    for module, writers in FRACTION_WRITERS.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert set(fraction_callers(tree)) == writers, module


def test_the_check_finds_a_fraction():
    tree = ast.parse("from fractions import Fraction\n"
                     "def rho_eval(f, y):\n"
                     "    return Fraction(1, 2)\n"
                     "def _torus_split(g, rows):\n"
                     "    def key(x):\n"
                     "        return fractions.Fraction(x, 2)\n"
                     "    return key\n"
                     "ZERO = Fraction(0)\n")
    assert sorted(fraction_callers(tree)) \
        == ["<module>", "_torus_split.key", "rho_eval"]


def test_no_module_reads_a_row_of_values_as_fractions():
    readers = {path.stem for path in PACKAGE.glob("*.py")
               if any(name == "vec" for _, name in package_imports(
                   ast.parse(path.read_text(encoding="utf-8"))))}
    assert readers == set()
