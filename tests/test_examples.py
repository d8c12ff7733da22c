"""Every script in ``examples/`` runs to completion, and every Python
block in the docs names only what ``repro`` exports.

Each script runs in a fresh interpreter, with ``src`` on
``PYTHONPATH``, and must exit 0.
"""

import ast
import glob
import importlib.util
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (
        f"{os.path.basename(script)} exited {proc.returncode}:\n"
        f"{proc.stderr[-2000:]}")


#: Docs whose ```` ```python ```` blocks must stay in step with the code.
DOCS = ("README.md", "DESIGN.md")


def _python_blocks(doc):
    with open(os.path.join(ROOT, doc), encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_doc_python_blocks_import_what_repro_exports():
    blocks = 0
    for doc in DOCS:
        for number, block in enumerate(_python_blocks(doc), 1):
            blocks += 1
            where = f"{doc} python block {number}"
            tree = ast.parse(block, filename=where)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.ImportFrom) and node.level == 0
                        and node.module.split(".")[0] == "repro"):
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    assert (hasattr(module, alias.name)
                            or importlib.util.find_spec(name)), (
                        f"{where} imports {name}, which does not exist")
    assert blocks >= 7
