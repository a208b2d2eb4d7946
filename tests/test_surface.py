"""The documented surface: README's examples run, and every exported name
has a caller in the package or the demos, or a reason in README to stay."""

import ast
import re
from pathlib import Path

import mopsrel

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# exported for the tests and for later work, with no caller in src/ or
# demos/; README's "Public surface" paragraph says why each stays
KEPT_WITHOUT_CALLER = ("auxiliary_sequences", "constant_sequences", "generate_q",
                       "induced_recurrence")


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run_in_order():
    blocks = _python_blocks(README)
    assert len(blocks) == 5
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def _referenced_names():
    """Every name the package modules (not __init__.py) and the demos use in
    code: loads, attributes and imports. A def or class statement, a comment
    or a docstring does not count."""
    files = [p for p in (ROOT / "src" / "mopsrel").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "demos").glob("*.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_export_has_a_caller_or_a_stated_reason():
    used = _referenced_names()
    unused = [n for n in mopsrel.__all__ if n not in used and n not in KEPT_WITHOUT_CALLER]
    assert unused == []
    surface = README.split("## Public surface", 1)[1].split("\n## ", 1)[0]
    for name in KEPT_WITHOUT_CALLER:
        assert name in mopsrel.__all__
        # a name that gained a caller leaves the tuple
        assert name not in used
        assert re.search(rf"`{name}\b", surface), name


def _unused_imports(path):
    """The names a module's import statements bind that its code never
    reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items()
                  if name not in used)


def test_package_modules_import_no_unused_name():
    """No module under src/mopsrel/ but __init__.py, whose imports are the
    public surface, imports a name it never uses."""
    modules = sorted((ROOT / "src" / "mopsrel").glob("*.py"))
    assert len(modules) > 1
    unused = [entry for path in modules if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == []


def test_only_casebook_raises_contract_error():
    """ContractError means that independent computations disagree, which only
    the casebook's certificates find; a refusal of input is another type."""
    raisers = sorted(
        path.name for path in (ROOT / "src" / "mopsrel").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ContractError"
    )
    assert raisers == ["casebook.py"]


def test_every_private_helper_has_a_reader():
    """Every module-level private function or class under src/mopsrel/ is
    read in the package modules or the demos (``_referenced_names``): a
    helper whose last caller went is dead code."""
    used = _referenced_names()
    private = [
        f"{path.name}:{node.name}" for path in sorted((ROOT / "src" / "mopsrel").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert len(private) > 10
    assert [entry for entry in private if entry.partition(":")[2] not in used] == []


# private names of the fractions module: its unnormalized constructor
# keyword, its constructor for coprime pairs and the slots of a Fraction
PRIVATE_FRACTION_NAMES = {"_normalize", "_from_coprime_ints", "_numerator", "_denominator"}


def test_no_module_uses_private_fraction_api():
    """The integer kernels build each Fraction through the public
    constructor: no module under src/mopsrel/ names a private part of
    ``fractions``, as an attribute, a keyword argument, a variable or a
    string (as setattr would take it)."""
    found = []
    for path in sorted((ROOT / "src" / "mopsrel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.arg if isinstance(node, ast.keyword)
                    else node.id if isinstance(node, ast.Name)
                    else node.value if isinstance(node, ast.Constant) else None)
            if name in PRIVATE_FRACTION_NAMES:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# the integer layout that Polynomial and MomentFunctional share: numerators,
# denominator and the constructor that reduces a raw vector
LAYOUT_NAMES = {"_nums", "_den", "_reduced"}
LAYOUT_MODULES = {"poly.py", "functional.py"}


def test_only_poly_and_functional_read_the_layout():
    """The moment and polynomial vectors are read and built only where they
    are defined: no other module under src/mopsrel/ names an attribute of
    the layout, so a division or product of functionals elsewhere goes
    through a public operation or ``MomentFunctional._divide``."""
    found = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted((ROOT / "src" / "mopsrel").glob("*.py"))
        if path.name not in LAYOUT_MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES
    ]
    assert found == []
