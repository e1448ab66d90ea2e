"""Start-up cost: the CLI and the commands that need no quadrature, root
finding, splines or banded solves never import the SciPy subpackages that
provide them."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy.integrate pulls in scipy.optimize and scipy.sparse
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.interpolate", "scipy.linalg",
         "scipy.sparse")

SCRIPT = r"""
import json, sys, tempfile
from pathlib import Path

HEAVY = %r

def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)

import skewdiff.cli as cli
cli.build_parser()
seen = {"import": loaded()}
sim = ["--t-end", "0.5", "--steps", "10", "--paths", "200", "--record-stride", "5"]
commands = {
    "family": ["family", "--kind", "horizon", "--T", "1", "--table-t", "0.25,0.5"],
    "simulate": ["simulate", "--kind", "constant-skew", "--alpha", "1", *sim],
    "mixture": ["mixture", "--kind", "horizon", "--T", "1", *sim],
    "ou_htransform": ["ou", "--mode", "htransform", "--lam", "1", *sim],
    "ou_sknoise": ["ou", "--mode", "sknoise", "--lam", "1", "--T", "1", *sim],
    "censor": ["censor", "--t-end", "1", "--steps", "20", "--paths", "3000",
               "--record-stride", "10", "--check-t", "0.5"],
    "density": ["density", "--kind", "constant-skew", "--alpha", "1", "--t", "0.5,1",
                "--x=-2:2:0.5"],
    "density_ou_noise": ["density", "--kind", "ou-noise-marginal", "--lam", "1",
                         "--T", "2", "--t", "1", "--x=-2:2:0.5"],
}
codes = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, argv in commands.items():
        codes[name] = cli.main([*argv, "--output-dir", str(Path(tmp) / name)])
seen["commands"] = loaded()
print(json.dumps({"seen": seen, "codes": codes}))
"""


def test_commands_start_without_heavy_scipy_subpackages():
    proc = subprocess.run([sys.executable, "-c", SCRIPT % (HEAVY,)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # 1 is a KS miss at these sizes; the command still ran to the end
    assert all(code in (0, 1) for code in out["codes"].values()), out["codes"]
    assert out["seen"] == {"import": [], "commands": []}


def _import_time_nodes(node):
    """The nodes that run when the module is imported: everything but the
    bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_module_level_scipy_is_special_only():
    for path in sorted((SRC / "skewdiff").glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            scipy = {n for n in names if n.split(".")[0] == "scipy"}
            assert scipy <= {"scipy", "scipy.special"}, (path.name, node.lineno)


def _package_imports(nodes):
    """The skewdiff modules that the import statements among `nodes` load."""
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            # from .m import y loads skewdiff.m; from . import m loads skewdiff.m
            names = ([f"skewdiff.{node.module}"] if node.module
                     else [f"skewdiff.{a.name}" for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        yield from (n for n in names if n.split(".")[0] == "skewdiff")


# deferred on purpose, so that start-up skips them: the CSV kernel until a
# writer runs, and the validation suite until `validate` runs
LAZY_IMPORTS = {("io", "skewdiff._floatfmt"), ("cli", "skewdiff.suite")}


def test_no_package_import_inside_a_function():
    # an import in a function body hides a dependency from the module
    # header, and most often an import cycle
    for path in sorted((SRC / "skewdiff").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for mod in _package_imports(ast.walk(fn)):
                    assert (path.stem, mod) in LAZY_IMPORTS, (path.name, fn.name, mod)


def test_no_import_inside_a_loop():
    for path in sorted((SRC / "skewdiff").glob("*.py")):
        tree = ast.parse(path.read_text())
        for loop in ast.walk(tree):
            if isinstance(loop, (ast.For, ast.While)):
                inner = [n for n in ast.walk(loop)
                         if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, (path.name, inner[0].lineno)
