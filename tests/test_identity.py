"""The byte-identity corpus of tools/identity.py: its smoke subset digests
the same records the same way twice, and --compare names what differs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_corpus_repeats(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tool = load_tool()
    first = tool.collect(smoke=True)
    assert {name.split("/")[0] for name in first} == {"config", "cli", "phi", "error"}
    assert tool.collect(smoke=True) == first
    assert Path.cwd() == tmp_path and not any(tmp_path.iterdir())


def test_compare_lists_every_differing_record(tmp_path, capsys):
    tool = load_tool()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"same": "1", "changed": "2", "gone": "3"}))
    b.write_text(json.dumps({"same": "1", "changed": "4", "new": "5"}))
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["changed: 2 -> 4", "gone: 3 -> missing", "new: missing -> 5",
                   "3 of 4 records differ"]
    assert tool.main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == "0 of 3 records differ\n"
