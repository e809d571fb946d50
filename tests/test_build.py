"""The compiled plant loops are built from source on first import, into the
package's ``__pycache__``, under a name that carries the source's hash."""

import ast
import hashlib
import importlib.machinery
import os
import shutil
import subprocess
import sys
import sysconfig
import types

from cellflex import _build

PACKAGE = _build.SOURCE.parent

# steps a battery, a heat pump and an EV through the compiled loops
STEP = """
import sys
from cellflex import plants
from cellflex.scenario import BesParams, BevParams, EhpParams
bes = plants.BatteryStorage(BesParams(5.0, 3.0, 3.0, soc0=0.5))
ehp = plants.HeatPumpSystem(EhpParams(3.0, 5.0, 0.4))
bev = plants.ElectricVehicle(BevParams(40.0, 11.0, soc0=0.5,
                                       trips=((8.0, 18.0, 8.0),)))
result = repr((bes.step(0.5, 60, 1.0, 15.0), bes.get_state(),
               ehp.step(1.0, 60, 2.0, -3.0, 15.0), ehp.get_state(),
               bev.step(0.0, 60, 7.9 * 3600.0, 15.0),
               bev.get_state()))
imported = sorted(m for m in sys.modules
                  if m.partition(".")[0] in ("setuptools", "distutils"))
"""


def copy_package(tmp_path, edit=None):
    """A copy of the package under `tmp_path`, with an empty ``__pycache__``;
    `edit` is called with the copy's C source path."""
    copy = tmp_path / "cellflex"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        edit(copy / _build.SOURCE.name)
    return copy


def start_import(tmp_path):
    """A new interpreter that imports the copy under `tmp_path`, steps its
    plants and prints the result, the file the loops were loaded from and
    the build tools imported at run time."""
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    code = STEP + "print(result, plants._loops.__file__, imported, sep='\\n')"
    return subprocess.Popen([sys.executable, "-c", code], cwd=tmp_path,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def check_first_import(proc, copy):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    result, loaded, imported = out.splitlines()
    built = copy / "__pycache__" / _build.kernel_name(_build.SOURCE.read_bytes())
    assert loaded == str(built)
    assert imported == "[]"
    here = {}
    exec(STEP, here)
    assert result == here["result"]


def test_first_import_builds_the_loops_into_an_empty_cache(tmp_path):
    copy = copy_package(tmp_path)
    check_first_import(start_import(tmp_path), copy)
    assert [p.name for p in (copy / "__pycache__").glob("_loops.*")] \
        == [_build.kernel_name(_build.SOURCE.read_bytes())]


def test_concurrent_first_imports_each_load_a_whole_build(tmp_path):
    # three builds race to rename into place; each process loads a
    # complete file and leaves no temporary behind
    copy = copy_package(tmp_path)
    procs = [start_import(tmp_path) for _ in range(3)]
    for proc in procs:
        check_first_import(proc, copy)
    assert len(list((copy / "__pycache__").glob("_loops.*"))) == 1


def test_a_new_build_removes_this_interpreters_earlier_builds(tmp_path):
    # an earlier source's build goes; another interpreter's build and a
    # temporary file, which another process may still be writing, stay
    copy = copy_package(tmp_path)
    cache = copy / "__pycache__"
    cache.mkdir()
    earlier = _build.kernel_name(b"an earlier source")
    other = earlier.removesuffix(_build.SUFFIX) + ".cpython-39-other.so"
    writing = f"{earlier}.123.tmp"
    for name in (earlier, other, writing):
        (cache / name).write_bytes(b"")
    check_first_import(start_import(tmp_path), copy)
    assert sorted(p.name for p in cache.glob("_loops.*")) == sorted(
        [_build.kernel_name(_build.SOURCE.read_bytes()), other, writing])


def test_a_failed_build_raises_import_error_with_the_compiler_output(tmp_path):
    def break_source(path):
        path.write_text(path.read_text() + "\nnot C;\n")

    copy = copy_package(tmp_path, break_source)
    _, err = start_import(tmp_path).communicate(timeout=300)
    assert "ImportError: cannot build _loops.c:" in err
    assert "-ffp-contract=off" in err
    assert "error" in err.split("exited", 1)[1]
    assert not list((copy / "__pycache__").glob("_loops.*"))


def test_a_changed_source_gets_a_new_file_name():
    source = _build.SOURCE.read_bytes()
    name = _build.kernel_name(source)
    assert hashlib.sha256(source).hexdigest() in name
    assert name.endswith(importlib.machinery.EXTENSION_SUFFIXES[0])
    assert _build.kernel_name(bytes(source)) == name
    assert _build.kernel_name(source + b"\n") != name


def test_the_source_compiles_without_a_warning():
    # every -Wall warning is an error, checked against this interpreter's
    # headers without building
    includes = {sysconfig.get_paths()[key] for key in ("include", "platinclude")}
    cmd = [*sysconfig.get_config_var("CC").split(), "-fsyntax-only", "-Wall",
           "-Werror", *sorted(f"-I{inc}" for inc in includes),
           str(_build.SOURCE)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_every_compiled_entry_is_used_by_the_package():
    # each function the compiled module exports is read as an attribute
    # somewhere in the package's Python (a docstring naming it does not
    # count), so no dead entry is left behind
    exported = {name for name, obj in vars(_build.load_loops()).items()
                if isinstance(obj, types.BuiltinFunctionType)}
    read = {node.attr for path in PACKAGE.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    assert exported
    assert sorted(exported - read) == []
