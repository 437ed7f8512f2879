"""The README's examples, run as written: the library quick tour, and every
command of the CLI block through `cli.main` in a temporary directory with
the documented exit codes."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from circledyn.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

def _block(heading: str, lang: str) -> str:
    text = README.read_text()
    match = re.search(rf"^## {re.escape(heading)}\n.*?```{lang}\n(.*?)```",
                      text, re.S | re.M)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


def _commands() -> list[list[str]]:
    lines = _block("CLI", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip()]


def _run_documented(argv):
    """Run one README command in-process and check its documented exit code:
    3 for a certified refutation (a REFUTES verdict), 0 otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv[1:])
    assert not err.getvalue(), (argv, err.getvalue())
    if "--output" in argv:
        assert code == 0, argv
        assert Path(argv[argv.index("--output") + 1]).stat().st_size > 0
        return
    report = json.loads(out.getvalue())
    refutes = isinstance(report, dict) and report.get("verdict") == "REFUTES"
    assert code == (3 if refutes else 0), argv


def test_quick_tour_runs():
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(_block("Library quick tour", "python"), "README", "exec"),
             scope)
    assert "+-" in out.getvalue()
    assert scope["equivalent"] is True
    assert scope["c"] == 1


def test_cli_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # the witness the README gives for the last command
    witness = re.search(r"for\s+instance\s+`(\{.*?\})`", README.read_text(), re.S)
    Path("witness.json").write_text(witness.group(1))
    commands = _commands()
    assert len(commands) == 12
    for argv in commands:
        assert argv[0] == "circledyn"
        _run_documented(argv)
    assert json.loads(Path("report.json").read_text())["iterations"] == 10000
    # the c32 euler-cocycle table, over the 81 words of the radius-1 ball
    table = json.loads(Path("table.json").read_text())
    assert len(table["values"]) == 81 * 81
