"""``scripts/check_oracle.py`` grades the checkout it belongs to: run from
a copy of the tree, it imports that copy's ``solaris_ray``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_LOAD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("check_oracle", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
import solaris_ray
print(solaris_ray.__file__)
"""


def test_check_oracle_imports_the_package_of_its_own_tree(tmp_path):
    tree = tmp_path / "copy"
    (tree / "scripts").mkdir(parents=True)
    shutil.copy(REPO / "scripts" / "check_oracle.py", tree / "scripts")
    (tree / "solaris_ray").mkdir()
    (tree / "solaris_ray" / "__init__.py").write_text("")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", _LOAD, str(tree / "scripts" / "check_oracle.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert Path(out.stdout.strip()).resolve() == (tree / "solaris_ray" / "__init__.py").resolve()
