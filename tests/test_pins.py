"""The pin table, tests/data/pins.json, and its recorder, tests/pins.py."""

import importlib
import json
import subprocess
from pathlib import Path

import pins


def test_the_table_is_written_as_the_recorder_writes_it():
    # so a re-record changes only the lines of the values that moved
    text = (pins.DATA / "pins.json").read_text()
    assert text == pins.dumps(json.loads(text))


def test_every_family_is_pinned_and_tested_once():
    # the table holds exactly the recorder's families, in its order; a family
    # is checked by one test, or split by key over tests that name each of
    # its keys once
    table = pins.load()
    assert list(table) == list(pins.TABLE)
    tests, keys = {}, {}
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for name, test in vars(importlib.import_module(path.stem)).items():
            for mark in getattr(test, "pytestmark", []):
                if mark.name == "pins":
                    tests.setdefault(mark.args[0], []).append(f"{path.name}::{name}")
                    keys.setdefault(mark.args[0], []).extend(mark.args[1:] or [None])
    assert sorted(tests) == sorted([*pins.TABLE, *pins.FILES])
    for family, named in keys.items():
        assert named == [None] or sorted(named) == sorted(table[family]), tests[family]


def _recorder(monkeypatch, tmp_path, returncode):
    """Point the recorder at tmp_path, with one family of each kind and its
    tier-1 run stubbed to end with the return code; returns the list that
    collects the argv of each tier-1 run."""
    runs = []

    def tier_1(argv, **kwargs):
        runs.append(argv)
        return subprocess.CompletedProcess(argv, returncode)

    monkeypatch.setattr(pins.subprocess, "run", tier_1)
    monkeypatch.setattr(pins, "DATA", tmp_path)
    monkeypatch.setattr(pins, "TABLE", {"table": lambda: {
        "kept": 1, "moved": {"a": [1, 2], "b": 3}, "added": None}})
    monkeypatch.setattr(pins, "FILES", {"files": lambda: {"kept.txt": "same\n",
                                                          "moved.txt": "new\n"}})
    (tmp_path / "pins.json").write_text(pins.dumps(
        {"table": {"kept": 1, "moved": {"a": [1], "b": 3}, "gone": 0}, "stale": {"x": 1}}))
    (tmp_path / "kept.txt").write_text("same\n")
    (tmp_path / "moved.txt").write_text("old\n")
    return runs


def test_the_recorder_writes_nothing_unless_tier_1_passes(monkeypatch, tmp_path, capsys):
    runs = _recorder(monkeypatch, tmp_path, 1)
    before = {path.name: path.read_text() for path in tmp_path.iterdir()}
    assert pins.main() == 1
    assert [argv[-2:] for argv in runs] == [["-m", "not pins"]]
    assert {path.name: path.read_text() for path in tmp_path.iterdir()} == before
    assert "nothing written" in capsys.readouterr().err


def test_the_recorder_rewrites_and_lists_what_moved(monkeypatch, tmp_path, capsys):
    _recorder(monkeypatch, tmp_path, 0)
    assert pins.main() == 0
    assert pins.load() == {"table": {"kept": 1, "moved": {"a": [1, 2], "b": 3}, "added": None}}
    assert (tmp_path / "moved.txt").read_text() == "new\n"
    old, new = (pins._digests({"": text})[""] for text in ("old\n", "new\n"))
    assert capsys.readouterr().out.splitlines() == [
        "table/moved/a: [1] -> [1, 2]",
        "table/gone: 0 -> (none)",
        "table/added: (none) -> null",
        'stale: {"x": 1} -> (none)',
        f"files/moved.txt: {json.dumps(old)} -> {json.dumps(new)}",
    ]
