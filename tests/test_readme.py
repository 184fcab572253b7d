import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys, monkeypatch):
    # the sketch names only what the package exports, and runs as written
    # from the repository root, where its config path points
    monkeypatch.chdir(README.parent)
    text = README.read_text()
    section = text.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library sketch", "exec"), namespace)
    assert len(namespace["runs"]) == 2
    assert len(namespace["ranked"]) == len(namespace["candidates"])
    assert namespace["result"].agreement == 1.0
    assert capsys.readouterr().out.count("\n") == 3
