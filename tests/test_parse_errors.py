"""Malformed input files: every fault is a ParseError, never a crash.

Each case names the parser, the text, a fragment of the message and
the line at fault (None when the fault is the file as a whole). The
CLI cases run the program in a child process, so an uncaught
exception would show as a traceback on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmpsat as F
from fmpsat.errors import ParseError

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
ELLA_VTREE = F.parse_vtree((DATA / "ella.vtree").read_text())


def parse_sdd(text):
    return F.parse_sdd(text, ELLA_VTREE)


PARSERS = {
    "vtree": F.parse_vtree,
    "sdd": parse_sdd,
    "obdd": F.parse_obdd,
    "dt": F.parse_dt,
    "xpg": F.parse_xpg,
    "instance": F.parse_instance,
}

DT_HEAD = "dt 1\nDOM 1 2 0 1\n"

CASES = [
    # vtree: the header is optional and ids need not be dense
    ("vtree", "vtree 1\nX 0 1\n", "unknown vtree line kind", 2),
    ("vtree", "L 0 x\n", "malformed vtree line", 1),
    ("vtree", "L 0 1 2\n", "malformed vtree line", 1),
    ("vtree", "vtree\nL 0 1\n", "malformed vtree line", 1),
    ("vtree", "L 0 1\nL 0 2\n", "duplicate vtree node id", 2),
    ("vtree", "vtree 5\nL 0 1\n", "header announces 5", None),
    ("vtree", "", "no nodes", None),
    ("vtree", "vtree 0\n", "no nodes", None),
    ("vtree", "I 0 1 2\nI 1 0 3\nL 2 1\nL 3 2\n", "0 root", None),
    ("vtree", "L 0 1\nL 1 2\n", "2 root", None),
    # SDD: the header is optional; the root is the last declared node
    ("sdd", "X 0\n", "unknown SDD line kind", 1),
    ("sdd", "T 0\nL 1 0 y\n", "malformed SDD line", 2),
    ("sdd", "T 0 1\n", "malformed SDD line", 1),
    ("sdd", "L 0 0\n", "malformed SDD line", 1),
    ("sdd", "D 0 2\n", "malformed SDD line", 1),
    ("sdd", "L 0 0 1\nL 1 1 2\nD 2 2 2 0 1\n", "announces 2 elements", 3),
    ("sdd", "T 0\nF 0\n", "duplicate SDD node id", 2),
    ("sdd", "sdd 3\nT 0\n", "header announces 3", None),
    ("sdd", "", "no nodes", None),
    ("sdd", "sdd 0\n", "no nodes", None),
    # OBDD: the header is required and ids are dense
    ("obdd", "T 0 0\n", "missing the obdd header", None),
    ("obdd", "obdd 1 1\nX 0 0\n", "unknown OBDD line kind", 2),
    ("obdd", "obdd 1 1\nT 0 zero\n", "malformed OBDD line", 2),
    ("obdd", "obdd 1 1\nT 0\n", "malformed OBDD line", 2),
    ("obdd", "obdd 1\nT 0 0\n", "malformed OBDD line", 1),
    ("obdd", "obdd 1 3\nT 0 0\nT 0 1\nN 1 1 0 0\n", "duplicate OBDD node id", 3),
    ("obdd", "obdd 1 3\nT 0 0\nT 1 1\nN 5 1 0 1\n", "dense", None),
    ("obdd", "obdd 1 5\nT 0 0\nT 1 1\nN 2 1 0 1\n", "header announces 5", None),
    ("obdd", "obdd 3 0\n", "no nodes", None),
    # decision tree: the header is required and must match the DOM lines
    ("dt", "DOM 1 2 0 1\nT 0 0\n", "missing the dt header", None),
    ("dt", DT_HEAD + "Q 0 0\n", "unknown DT line kind", 3),
    ("dt", DT_HEAD + "T 0 +-1\n", "malformed DT line", 3),
    ("dt", DT_HEAD + "N 0\n", "malformed DT line", 3),
    ("dt", "dt 1\nDOM 1 2\n", "malformed DT line", 2),
    ("dt", DT_HEAD + "N 0 1\nT 1 0\nT 2 1\nE 0 1\n", "malformed DT line", 6),
    ("dt", "dt 1\nDOM 1 3 0 1\n", "announces 3 values", 2),
    ("dt", DT_HEAD + "N 0 1\nT 0 0\n", "duplicate DT node id", 4),
    ("dt", DT_HEAD + "N 0 1\nT 1 0\nT 5 1\nE 0 1 0\nE 0 5 1\n", "dense", None),
    ("dt", DT_HEAD, "no nodes", None),
    ("dt", DT_HEAD + "N 0 1\nN 1 1\nE 0 1 0\nE 1 0 1\n", "no root", None),
    ("dt", DT_HEAD + "T 0 0\nT 1 1\n", "multiple roots", None),
    ("dt", DT_HEAD + "N 0 2\nT 1 0\nT 2 1\nE 0 1 0\nE 0 2 1\n", "no DOM line", 3),
    ("dt", "dt 2\nDOM 1 2 0 1\nN 0 1\nT 1 0\nT 2 1\nE 0 1 0\nE 0 2 1\n", "dt header", None),
    # explanation graph: the header is required and ids are dense
    ("xpg", "N 0 1\n", "missing the xpg header", None),
    ("xpg", "xpg 1 1\nZ 0 1\n", "unknown XpG line kind", 2),
    ("xpg", "xpg 1 1\nT 0 1.0\n", "malformed XpG line", 2),
    ("xpg", "xpg 1 1\nE 0 1\n", "malformed XpG line", 2),
    ("xpg", "xpg 1 3\nN 0 1\nT 1 1\nN 1 0\n", "duplicate XpG node id", 4),
    ("xpg", "xpg 1 3\nN 0 1\nT 1 1\nT 7 0\nE 0 1 1\nE 0 7 0\n", "dense", None),
    ("xpg", "xpg 1 4\nN 0 1\nT 1 1\nT 2 0\nE 0 1 1\nE 0 2 0\n", "header announces 4", None),
    ("xpg", "xpg 1 0\n", "no nodes", None),
    ("xpg", "xpg 1 2\nN 0 1\nN 1 1\nE 0 1 1\nE 1 0 1\n", "no root", None),
    ("xpg", "xpg 1 3\nN 0 1\nT 1 1\nT 2 0\nE 0 1 1\n", "multiple roots", None),
    # instance: '#' starts a comment, since 'c:' is the class record
    ("instance", "v: 0,1\nx: 1\n", "unknown instance line", 2),
    ("instance", "v: 0,a\nc: 0\n", "malformed value vector", 1),
    ("instance", "v: 0,1\nc: 0 1\n", "malformed class", 2),
    ("instance", "# no values\nc: 0\n", "missing the v: line", None),
    ("instance", "v: 0,1\n", "missing the c: line", None),
    # a repeated record is an error, not silently replaced by the last one
    ("vtree", "vtree 1\nL 0 1\nvtree 1\n", "second vtree header", 3),
    ("sdd", "sdd 1\nsdd 1\nT 0\n", "second sdd header", 2),
    ("obdd", "obdd 1 3\nT 0 0\nT 1 1\nobdd 1 3\nN 2 1 0 1\n", "second obdd header", 4),
    ("dt", DT_HEAD + "dt 1\nN 0 1\nT 1 0\nT 2 1\nE 0 1 0\nE 0 2 1\n", "second dt header", 3),
    ("dt", DT_HEAD + "DOM 1 3 0 1 2\nT 0 0\n", "second DOM line for feature 1", 3),
    ("xpg", "xpg 1 3\nxpg 1 3\nN 0 1\nT 1 1\nT 2 0\nE 0 1 1\nE 0 2 0\n", "second xpg header", 2),
    ("instance", "v: 0,1\nv: 1,1,1\nc: 0\n", "second v: line", 2),
    ("instance", "v: 0,1\nc: 0\nc: 1\n", "second c: line", 3),
]


@pytest.mark.parametrize(
    "fmt,text,fragment,line", CASES, ids=[f"{c[0]}-{k}" for k, c in enumerate(CASES)]
)
def test_malformed_input_is_a_parse_error(fmt, text, fragment, line):
    with pytest.raises(ParseError, match=fragment) as info:
        PARSERS[fmt](text)
    assert info.value.line == line
    if line is not None:
        assert str(info.value).startswith(f"line {line}: ")


CLI_CASES = {
    "vtree": ("L 0 1\nL 0 2\n", lambda v: ["--sdd", str(DATA / "ella.sdd"), "--vtree", v]),
    "sdd": ("T 0\nF 0\n", lambda s: ["--sdd", s, "--vtree", str(DATA / "ella.vtree")]),
    "obdd": ("obdd 3 0\n", lambda o: ["--obdd", o]),
    "dt": (DT_HEAD + "N 0 2\nT 1 0\nT 2 1\nE 0 1 0\nE 0 2 1\n", lambda d: ["--dt", d]),
    "xpg": ("xpg 1 0\n", lambda x: ["--xpg", x]),
    "instance": ("v: 0,1,0,a\nc: 0\n", lambda i: ["--obdd", str(DATA / "ella.obdd")]),
}


@pytest.mark.parametrize("fmt", sorted(CLI_CASES))
def test_cli_malformed_input_exits_2(fmt, tmp_path):
    text, classifier_args = CLI_CASES[fmt]
    path = str(tmp_path / f"bad.{fmt}")
    Path(path).write_text(text)
    instance = path if fmt == "instance" else str(DATA / "ella.inst")
    argv = ["fmp", *classifier_args(path), "--instance", instance, "--target", "1"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fmpsat.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
