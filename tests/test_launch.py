"""What a fresh process pays to import finestruct: its threads and its modules."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY = "assert 'numpy' not in sys.modules and not [m for m in sys.modules if m.startswith('finestruct.')]"


def _fresh(code, **env_changes):
    """Run ``code`` in a new interpreter that imports from SRC; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("blas_threads", [None, "4"])
def test_cli_process_runs_one_thread(blas_threads):
    # OpenBLAS starts one spinning worker per CPU when numpy is imported; the
    # CLI calls no BLAS routine, so it caps the pool whatever the environment says
    count = _fresh("import finestruct.cli, os; print(len(os.listdir('/proc/self/task')))",
                   OPENBLAS_NUM_THREADS=blas_threads)
    assert count == "1"


def test_import_loads_no_submodule_and_no_numpy():
    _fresh(f"import sys, finestruct; {LAZY}; "
           "assert 'OPENBLAS_NUM_THREADS' not in __import__('os').environ",
           OPENBLAS_NUM_THREADS=None)


def test_each_name_resolves_on_first_use_to_its_submodules_object():
    _fresh("import sys, finestruct\n"
           "assert finestruct.stattests is sys.modules['finestruct.stattests']\n"
           "for name in finestruct.__all__[1:]:\n"
           "    assert name not in vars(finestruct), name\n"
           "    value = getattr(finestruct, name)\n"
           "    assert vars(finestruct)[name] is value, name\n"
           "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
           "assert finestruct.__all__[0] == '__version__' and finestruct.__version__ == '0.1.0'\n")


def test_dir_lists_every_name_before_import_star_binds_them():
    _fresh("import sys, finestruct\n"
           "assert set(finestruct.__all__) <= set(dir(finestruct))\n"
           f"{LAZY}\n"
           "ns = {}\n"
           "exec('from finestruct import *', ns)\n"
           "assert all(ns[name] is getattr(finestruct, name) for name in finestruct.__all__)\n")


def test_unknown_attribute_raises_naming_the_package():
    _fresh("import sys, finestruct\n"
           "try:\n"
           "    finestruct.no_such_name\n"
           "except AttributeError as exc:\n"
           "    assert \"'finestruct'\" in str(exc) and 'no_such_name' in str(exc), exc\n"
           "else:\n"
           "    raise AssertionError('no AttributeError')\n"
           f"{LAZY}\n")


def test_plot_imports_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (numpy 2.4); nothing a plot needs does
    csv, svg = tmp_path / "m.csv", tmp_path / "m.svg"
    csv.write_text("a,b\n" + "".join(f"{i % 17 / 3!r},{(i * 7919) % 101}\n" for i in range(300)))
    _fresh("import sys, numpy\n"
           "preloaded = 'numpy.ma' in sys.modules\n"
           "from finestruct.cli import main\n"
           f"assert main(['plot', {str(csv)!r}, '-o', {str(svg)!r}, '--replicates', '20']) == 0\n"
           "assert preloaded or 'numpy.ma' not in sys.modules\n")
    assert svg.exists()
