"""The compiled and pure-Python kernels must be interchangeable.

When the package was installed without its extension, the tracked
``_levenshtein_cy.c`` is compiled into a temporary directory with the system
C compiler, so the kernels are compared wherever a compiler and the
interpreter headers exist.
"""

import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from gec_editkit import _levenshtein
from gec_editkit.align import alignment_backend

try:
    from gec_editkit import _levenshtein_cy as PACKAGE_EXTENSION
except ImportError:
    PACKAGE_EXTENSION = None


@pytest.fixture(scope="session")
def cy(tmp_path_factory):
    if PACKAGE_EXTENSION is not None:
        return PACKAGE_EXTENSION
    compiler = shutil.which("cc") or shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if compiler is None or not Path(include, "Python.h").is_file():
        pytest.skip("no C compiler or no Python.h to build the compiled kernel")
    source = Path(_levenshtein.__file__).with_name("_levenshtein_cy.c")
    out = tmp_path_factory.mktemp("kernel") / ("_levenshtein_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", f"-I{include}", str(source), "-o", str(out)],
        check=True, timeout=300,
    )
    spec = importlib.util.spec_from_file_location("gec_editkit._levenshtein_cy", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Cython registers the module in sys.modules while executing it; take it
    # out again so the rest of the session still sees a package without it.
    sys.modules.pop(spec.name, None)
    return module


def random_ids(rng, max_len=40):
    return [rng.randrange(6) for _ in range(rng.randint(0, max_len))]


def test_op_constants_agree(cy):
    assert (cy.OP_MATCH, cy.OP_SUBSTITUTE, cy.OP_DELETE, cy.OP_INSERT) == (
        _levenshtein.OP_MATCH,
        _levenshtein.OP_SUBSTITUTE,
        _levenshtein.OP_DELETE,
        _levenshtein.OP_INSERT,
    )


def test_backends_produce_identical_op_streams(cy):
    rng = random.Random(424242)
    for _ in range(1500):
        src, tgt = random_ids(rng), random_ids(rng)
        assert cy.backtrace_ops(src, tgt) == _levenshtein.backtrace_ops(src, tgt)


def test_backends_agree_on_edges(cy):
    for src, tgt in [([], []), ([1], []), ([], [1]), ([1, 2, 3], [1, 2, 3]), ([1] * 50, [2] * 50)]:
        assert cy.backtrace_ops(src, tgt) == _levenshtein.backtrace_ops(src, tgt)


@pytest.mark.skipif(PACKAGE_EXTENSION is None, reason="the package was installed without its extension")
def test_compiled_backend_selected_by_default():
    assert alignment_backend() == "cython"


