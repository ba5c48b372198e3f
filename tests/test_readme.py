"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    traj = namespace["traj"]
    lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(traj.times) == 1002
    assert namespace["x_end"] == traj.states[-1][0]
