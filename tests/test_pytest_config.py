import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_misspelt_marker_fails_collection(tmp_path):
    test_file = tmp_path / "test_typo.py"
    test_file.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_typo():\n    pass\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-m", "not slow", str(test_file)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode != 0
    assert "'slwo' not found in `markers`" in result.stdout


def test_package_imports_without_pythonpath(tmp_path):
    test_file = tmp_path / "test_import.py"
    test_file.write_text("def test_import():\n    import wogma.cli  # noqa: F401\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(test_file)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
    assert result.returncode == 0, result.stdout
