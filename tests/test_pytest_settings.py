import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers(0, 3))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''

LEAKS = '''
import gc


def test_leaks_a_file(tmp_path):
    open(tmp_path / "f", "w")
    gc.collect()


class Broken:
    def __del__(self):
        raise RuntimeError("finaliser")


def test_finaliser_raises():
    Broken()
    gc.collect()


def test_passes():
    pass
'''


def run_under_pyproject(tmp_path, source):
    """pytest's result for a test file of source under this repo's settings."""
    (tmp_path / "test_it.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_it.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # Reporting a failing property imports libcst, which warns with a
    # DeprecationWarning; under this repo's filterwarnings that must not
    # become an INTERNALERROR that hides the other results.
    result = run_under_pyproject(tmp_path, PAIR)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_unclosed_files_and_finaliser_errors_fail_their_tests(tmp_path):
    # Both surface only as warnings from a finaliser, which pytest would
    # otherwise print and pass.
    result = run_under_pyproject(tmp_path, LEAKS)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "2 failed, 1 passed" in result.stdout
