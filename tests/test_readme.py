"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert capsys.readouterr().out.startswith("GlaMetrics(output='pitch'")
    # the run reaches the open-loop pitch peak, and the closed loop lowers it
    opened, closed = scope["open_loop"], scope["closed_loop"]
    peak = opened.time[abs(opened.outputs[:, 0]).argmax()]
    assert peak < opened.time[-1]
    metrics = scope["sim"].compute_metrics(opened, closed, "pitch")
    assert metrics.reduction_percent > 0.0
    # theta(0) is the caller's, unchanged, and the first logged gains
    assert (scope["theta0"] == 0.0).all() and (closed.theta[0] == 0.0).all()
