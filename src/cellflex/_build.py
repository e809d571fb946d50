"""Build and load ``_loops.c``: the plants' substep loops (one entry per
model, which runs a class of plants in step), the power-flow sweep, the
twin's changed-offset scan, the objective's plant cost and Basin Hopping's
PCG64 draws, compiled.

The modules that call into it call `load_loops` when they are first
imported; the first call in a process loads the extension into
``sys.modules`` and the later ones return it.  The extension lives in the
package's ``__pycache__`` under a name that carries the sha256 of the C
source and the interpreter's extension suffix (`kernel_name`), so an edited
source or another interpreter gets its own file and an existing one is
loaded as it is.  The build runs the interpreter's ``LDSHARED`` command with
``-O2 -fno-fast-math -ffp-contract=off``: no fused multiply-adds, so each
float operation rounds as Python's does.  It writes to a temporary name and
renames it into place, so processes that import the package for the first
time at once never load a half-written file.  Then it removes this
interpreter's builds of earlier sources; other interpreters' builds and
temporary files, which another process may still be writing, stay.
Building needs a 64-bit C compiler with ``unsigned __int128`` (gcc or
clang) and the Python headers; a failed build raises ImportError with the
command and the compiler's output.
"""

import importlib.machinery
import importlib.util
import os
import sys
from pathlib import Path

# the interpreter's own sha256: hashlib would load OpenSSL, several MB of
# resident memory, into every process that imports the package
try:
    from _sha2 import sha256            # Python 3.12 on
except ImportError:
    from _sha256 import sha256

SOURCE = Path(__file__).with_name("_loops.c")
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fPIC")
MODULE = "cellflex._loops"
SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def kernel_name(source):
    """File name of the extension built from the C source bytes `source`."""
    return f"_loops.{sha256(source).hexdigest()}{SUFFIX}"


def _build(path):
    import subprocess
    import sysconfig

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    includes = {sysconfig.get_paths()[key] for key in ("include", "platinclude")}
    cmd = [*sysconfig.get_config_var("LDSHARED").split(), *FLAGS,
           *sorted(f"-I{inc}" for inc in includes), str(SOURCE), "-o", str(tmp)]
    try:
        path.parent.mkdir(exist_ok=True)
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode == 0:
            os.replace(tmp, path)
            return
        failure = f"exited {done.returncode}:\n{done.stderr}"
    except OSError as exc:
        failure = str(exc)
    finally:
        tmp.unlink(missing_ok=True)
    raise ImportError(f"cannot build {SOURCE.name}: {' '.join(cmd)}: {failure}")


def load_loops():
    """The compiled loops module, built first if this source has no build."""
    if MODULE in sys.modules:
        return sys.modules[MODULE]
    path = SOURCE.parent / "__pycache__" / kernel_name(SOURCE.read_bytes())
    if not path.is_file():
        _build(path)
        # every build kernel_name can give, but this one
        for old in path.parent.glob(f"_loops.{'[0-9a-f]' * 64}{SUFFIX}"):
            if old != path:
                old.unlink(missing_ok=True)
    loader = importlib.machinery.ExtensionFileLoader(MODULE, str(path))
    spec = importlib.util.spec_from_file_location(MODULE, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[MODULE] = module
    return module
