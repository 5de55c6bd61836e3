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


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # Reporting a failing property imports libcst, which warns with a
    # DeprecationWarning; under this repo's filterwarnings that must not
    # become an INTERNALERROR that hides the other results.
    (tmp_path / "test_pair.py").write_text(PAIR)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
