"""Each process loads a module only when it first uses it.

``import portraits`` loads no submodule: the package resolves its public
names and its submodules on first use.  Each subcommand imports what it
runs, so ``validate`` and ``build`` on an invalid portrait stop at the
validator, ``build`` never loads ``enumeration`` or ``json``, and only
``enumerate`` loads ``enumeration``.  Every case runs in a fresh
interpreter, which lists the modules it holds when it exits.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import portraits

SRC = Path(__file__).resolve().parent.parent / "src"
DEGREE5 = "degree 5\nset 0 3/4\nset 1/8 5/8\nset 1/4\nset 1/2\n"
P1_MUTATED = "degree 5\nset 0 3/4\nset 1/8 7/8\nset 1/4\nset 1/2\n"
PIPELINE = {"portraits.builder", "portraits.tree", "portraits.recovery",
            "portraits.report", "portraits.render"}
LIST = ("import atexit, sys; "
        "atexit.register(lambda: print('loaded:', *sys.modules, file=sys.stderr)); ")
CLI = "import runpy; runpy.run_module('portraits.cli', run_name='__main__', alter_sys=True)"


def run(code, *args, cwd):
    """(exit status, stdout, the modules loaded) of ``python -c code args``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", LIST + code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=60)
    listed = proc.stderr.splitlines()[-1].split()
    assert listed[0] == "loaded:", proc.stderr
    return proc.returncode, proc.stdout, set(listed[1:])


def submodules(loaded):
    return {name for name in loaded if name.startswith("portraits.")}


@pytest.fixture
def files(tmp_path):
    (tmp_path / "d5.txt").write_text(DEGREE5)
    (tmp_path / "p1.txt").write_text(P1_MUTATED)
    return tmp_path


def test_import_loads_no_submodule(tmp_path):
    code, _, loaded = run("import portraits", cwd=tmp_path)
    assert code == 0
    assert "portraits" in loaded
    assert not submodules(loaded)


def test_names_and_submodules_resolve_on_first_use(tmp_path):
    code, _, _ = run("import portraits; "
                     "assert portraits.fileio.parse_portrait; "
                     "assert portraits.portrait.enumerate_portraits "
                     "is portraits.enumerate_portraits "
                     "is portraits.enumeration.enumerate_portraits", cwd=tmp_path)
    assert code == 0


def test_build_loads_neither_enumeration_nor_json(files):
    code, out, loaded = run(CLI, "build", "d5.txt",
                              "--json", "r.json", cwd=files)
    assert code == 0 and out.endswith("round trip: ok\n")
    assert (files / "r.json").read_text().startswith('{\n  "degree": 5,')
    assert PIPELINE <= submodules(loaded)
    assert "portraits.enumeration" not in loaded
    assert not {name for name in loaded if name.split(".")[0] == "json"}


@pytest.mark.parametrize("argv, expected", [
    (["validate", "d5.txt"], (0, "ok\n")),
    (["build", "p1.txt"], (1, "P1: set 2 {1/8 7/8} is not a degree-5 rotation set\n"
                                "P2-linked: sets 1 and 2 cross (neither lies in one "
                                "gap of the other)\n")),
], ids=["validate", "build-P1"])
def test_validation_loads_no_pipeline_module(files, argv, expected):
    code, out, loaded = run(CLI, *argv, cwd=files)
    assert (code, out) == expected
    assert "portraits.portrait" in loaded
    assert not PIPELINE & loaded
    assert "portraits.enumeration" not in loaded


def test_enumerate_loads_enumeration(tmp_path):
    code, out, loaded = run(CLI, "enumerate", "--degree", "2",
                              "--max-period", "2", cwd=tmp_path)
    assert code == 0 and out.endswith("# total: 2 rotation sets\n")
    assert "portraits.enumeration" in loaded
    assert not PIPELINE & loaded


def test_dir_covers_all():
    names = dir(portraits)
    assert set(portraits.__all__) <= set(names)
    assert {"enumeration", "fileio", "report"} <= set(names)
