"""The demos and the README's quick tour run as documented, and every
public function and class documents itself."""

import inspect
import os
import re
import subprocess
import sys

import pytest

import pegplan
from conftest import ROOT


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quick_tour(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Quick tour\s+```python\n(.*?)```", readme, re.S)
    assert tour, "README.md has no Quick tour code block"
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(tour.group(1), namespace)
    assert namespace["trace"].sum_rho == 6
    assert capsys.readouterr().out.endswith("total effort: 6\n")


def test_every_public_name_has_a_docstring():
    undocumented = []
    for name in pegplan.__all__:
        obj = getattr(pegplan, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        doc = (obj.__doc__ or "").strip()
        # a class made by a generator (NamedTuple, dataclass) without a
        # docstring gets its signature, or a "Name(fields)" line, as one
        if not doc or inspect.isclass(obj) and doc.startswith(f"{name}("):
            undocumented.append(name)
    assert not undocumented


def test_public_names_are_listed_once_and_resolve():
    # pegplan star-imports every module's __all__: a name two modules list
    # would be shadowed silently by the later import
    names = pegplan.__all__
    assert sorted(set(names)) == names
    assert [name for name in names if not hasattr(pegplan, name)] == []
