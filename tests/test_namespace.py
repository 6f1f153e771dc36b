"""The package namespace: every public name resolves on first use, and
``import sphgreen`` alone loads none of the package's modules."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sphgreen


def test_every_public_name_is_its_modules_object():
    for name in sphgreen.__all__:
        value = getattr(sphgreen, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("sphgreen.")
        assert name in module.__all__ and getattr(module, name) is value


def test_public_names_are_unique_and_unchanged_in_number():
    assert len(set(sphgreen.__all__)) == len(sphgreen.__all__) == 34


def test_readme_python_api_lists_the_public_names():
    # one "- `name`: ..." line per public name, from "## Python API" to the next heading
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
    listed = re.findall(r"^- `(\w+)`:", section, flags=re.M)
    assert sorted(listed) == sorted(sphgreen.__all__)


def test_kernel_names_are_the_oracle_modules_names():
    # the production path needs these without specfun or quadrature, which import them
    from sphgreen import kernel, quadrature, specfun

    assert specfun.NonConvergenceError is kernel.NonConvergenceError
    assert specfun.double_factorial is kernel.double_factorial
    assert quadrature.ToleranceNotMetError is kernel.ToleranceNotMetError


def test_star_import():
    namespace = {}
    exec("from sphgreen import *", namespace)
    assert set(sphgreen.__all__) <= set(namespace)
    assert namespace["fundamental_solution"] is sphgreen.kernel.fundamental_solution


def test_dir_lists_the_public_names():
    listed = dir(sphgreen)
    assert set(sphgreen.__all__) <= set(listed) and "__version__" in listed
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sphgreen.no_such_name  # noqa: B018


def test_import_loads_no_submodule(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    script = "import sys, sphgreen; print(sorted(m for m in sys.modules if 'sphgreen' in m))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['sphgreen']"
