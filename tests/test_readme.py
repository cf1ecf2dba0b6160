"""The README quickstart runs as written and its stated outcomes hold."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    capsys.readouterr()
    pn, report = namespace["pn"], namespace["report"]
    assert namespace["kthr"] == pytest.approx(45.0, rel=1e-12)
    assert report.rhs_threshold == pytest.approx(0.5)
    assert report.iterative_bound >= report.rhs_threshold
    assert report.verdict_theorem and report.verdict_exact
    assert pn.check_decay(namespace["traj"]).ok
