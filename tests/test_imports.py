"""Import contracts: the oracles stay apart from the pipeline, the pipeline
takes no test-only parameters, and the benchmark harness finds every name it
imports."""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ariki")
PERFBENCH = os.path.join(ROOT, "perfbench")

# the kernels the oracles check; a reference that reads one is no longer
# independent of it
CHECKED_KERNELS = {"i_signature", "_reduced_signature", "_moves", "_f_divided"}

# the modules that are not on the pipeline: the oracles, the checks and the CLI
NOT_PIPELINE = ("_oracles.py", "verification.py", "cli.py")


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
