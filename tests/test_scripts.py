import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SYSTEMS = ("step_ninth", "step_twentyseventh", "positive_step", "rational_split",
           "constant_half")


def test_reproduce_examples_quick(monkeypatch, capsys):
    path = SCRIPTS / "reproduce_examples.py"
    monkeypatch.setattr("sys.argv", [str(path), "--quick"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code in (None, 0)
    out = capsys.readouterr().out
    for name in SYSTEMS:
        assert f"system: {name}\n" in out
    step = out.split("system: step_ninth\n")[1].split("system: ")[0]
    assert "global mean: 2/7\n" in step
