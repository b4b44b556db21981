"""Every narrative demo, and README's library quickstart, runs to completion
against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_prints_what_its_comments_say():
    # the quickstart's Python blocks run as one script from the repo root;
    # each print is followed by a comment holding the line it prints
    quickstart = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## Library quickstart", 1)[1].split("\n## ", 1)[0]
    code = "".join(re.findall(r"```python\n(.*?)```", quickstart, re.S))
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert expected == ["True 1.0", "4 directly_follows"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == expected
