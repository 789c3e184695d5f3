"""Import contracts: the oracles stay apart from the pipeline, the pipeline
takes no test-only parameters and defines nothing that only the checks
read, importing the package and its CLI stays cheap, and the benchmark
harness and the README find every name they import."""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ariki")
PERFBENCH = os.path.join(ROOT, "perfbench")

# the kernels the oracles check; a reference that reads one is no longer
# independent of it
CHECKED_KERNELS = {"i_signature", "component_signature", "border_signatures",
                   "am_reduced_signature", "am_reduced_signatures", "_reduced_signature",
                   "_cancelled", "_moves", "_f_divided"}

# the modules that are not on the pipeline: the oracles, the checks and the CLI
NOT_PIPELINE = ("_oracles.py", "verification.py", "cli.py")

# standard modules whose import costs more than a one-vertex query: the
# package and its CLI load none of them (only `verify` loads subprocess, only
# the JSON outputs load json, and only the functions that return Fractions
# load fractions, with decimal and numbers)
COLD_PATH_EXCLUDED = {"dataclasses", "inspect", "subprocess",
                      "fractions", "decimal", "numbers", "json"}

# one-vertex commands, and a small text canonical basis, that a cold process
# answers without any excluded module
COLD_COMMANDS = (
    ["a-value", "--d", "3", "--e", "4", "--charges", "0,1,3", "--mp=2.1,1,-"],
    ["a-seq", "--d", "3", "--e", "4", "--charges", "0,1,3", "--mp=-,1,2"],
    ["bijection", "--d", "3", "--e", "4", "--charges", "0,1,3", "--mp=2.1,1,-"],
    ["bijection", "--inverse", "--d", "3", "--e", "4", "--charges", "0,1,3", "--mp=-,1,2"],
    ["canonical", "--d", "2", "--e", "2", "--charges", "0,1", "--n", "3"],
)


def _imports(path):
    """(module, name) for every `from module import name` in a file, and
    (module, None) for every `import module`; relative modules keep their dots."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            out += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
    return out


def test_oracle_imports_point_one_way():
    # the pipeline never reads an oracle: only verify and the package root
    # (for perfbench's compute_A) import _oracles
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py") or filename in ("__init__.py", "verification.py"):
            continue
        imports = _imports(os.path.join(PACKAGE, filename))
        assert not [(module, name) for module, name in imports
                    if "_oracles" in (module.split(".")[-1], name)], filename
    # and no oracle reads the kernels it checks
    names = {name for _, name in _imports(os.path.join(PACKAGE, "_oracles.py"))}
    assert not names & CHECKED_KERNELS


def test_pipeline_has_no_private_parameters():
    # a parameter named _x is a knob for tests; the pipeline takes none
    found = []
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py") or filename in NOT_PIPELINE:
            continue
        path = os.path.join(PACKAGE, filename)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        # ast.arg nodes are exactly the parameters of functions and lambdas
        found += [(filename, node.lineno, node.arg) for node in ast.walk(tree)
                  if isinstance(node, ast.arg) and node.arg.startswith("_")]
    assert not found


def _parsed(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def test_pipeline_defines_nothing_only_the_checks_read():
    # every top-level function and class of a pipeline module, and every
    # non-dunder method, is read by the pipeline, the CLI or the benchmark
    # harness (an AST Name, Attribute or import alias), exported from the
    # package, or named in README; a name that only _oracles, verification
    # or the tests read belongs in _oracles
    pipeline = sorted(f for f in os.listdir(PACKAGE)
                      if f.endswith(".py") and f not in NOT_PIPELINE + ("__init__.py",))
    readers = [os.path.join(PACKAGE, f) for f in pipeline + ["cli.py"]]
    readers += [os.path.join(PERFBENCH, f) for f in sorted(os.listdir(PERFBENCH))
                if f.endswith(".py")]
    read = set()
    for path in readers:
        for node in ast.walk(_parsed(path)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    exported = {alias.name for node in ast.walk(_parsed(os.path.join(PACKAGE, "__init__.py")))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    with open(os.path.join(ROOT, "README.md")) as fh:
        named = set(re.findall(r"\w+", fh.read()))
    unread = []
    for filename in pipeline:
        for node in _parsed(os.path.join(PACKAGE, filename)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined = [node.name]
            if isinstance(node, ast.ClassDef):
                defined += [f"{node.name}.{m.name}" for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__"))]
            unread += [f"{filename}:{name}" for name in defined
                       if name.split(".")[-1] not in read | exported | named]
    assert not unread


def test_perfbench_imports_resolve():
    checked = 0
    for filename in sorted(os.listdir(PERFBENCH)):
        if not filename.endswith(".py"):
            continue
        for module, name in _imports(os.path.join(PERFBENCH, filename)):
            if module.split(".")[0] != "ariki":
                continue
            imported = importlib.import_module(module)
            assert name is None or hasattr(imported, name), (filename, module, name)
            checked += 1
    assert checked
    # the README names these without a module path
    from ariki import aseq, crystal, crystal_bijection, peel_step
    assert crystal_bijection is crystal.crystal_bijection and peel_step is aseq.peel_step


def _fresh(script):
    """What script prints as one repr'd literal, run in a fresh interpreter,
    as for one CLI query."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-s", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_compute_A_is_served_on_first_access():
    # the package root serves the oracle lazily, and only that name
    import ariki
    from ariki import _oracles, compute_A
    assert compute_A is _oracles.compute_A
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(ariki, "no_such_name")


def test_cold_import_loads_no_heavy_modules():
    # site may preload modules, so only the ones the import adds count; the
    # probe itself imports nothing before its snapshot
    added = set(_fresh("import sys; before = set(sys.modules); "
                       "import ariki, ariki.render, ariki.cli; "
                       "print(repr(sorted(set(sys.modules) - before)))"))
    assert "ariki.cli" in added
    assert "ariki._oracles" not in added
    assert not added & COLD_PATH_EXCLUDED, sorted(added & COLD_PATH_EXCLUDED)


def test_cold_commands_load_no_heavy_modules():
    # whole commands, parsing and output included; io is loaded at start-up
    codes, outputs, added = _fresh(
        "import io, sys\n"
        "before = set(sys.modules)\n"
        "from ariki.cli import main\n"
        "codes, outputs = [], []\n"
        f"for argv in {COLD_COMMANDS!r}:\n"
        "    sys.stdout = io.StringIO()\n"
        "    codes.append(main(argv))\n"
        "    outputs.append(sys.stdout.getvalue())\n"
        "sys.stdout = sys.__stdout__\n"
        "print(repr((codes, outputs, sorted(set(sys.modules) - before))))")
    assert codes == [0] * len(COLD_COMMANDS)
    assert all(outputs), outputs
    added = set(added)
    assert "ariki._oracles" not in added
    assert not added & COLD_PATH_EXCLUDED, sorted(added & COLD_PATH_EXCLUDED)
