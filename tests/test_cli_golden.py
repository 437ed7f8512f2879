"""The CLI's output bytes, pinned by sha256: every command of the README's
CLI block run through `cli.main` in a temporary directory (stdout, stderr
and exit code of each, and the bytes of each file the session writes),
and `--help` of the program and of every subcommand.  The help texts are
argparse's formatting at 80 columns, as Python 3.11 lays it out.  A digest
changes only together with a message change that CHANGES.md lists."""

import contextlib
import hashlib
import io
import re
from pathlib import Path

import pytest

from circledyn.cli import main
from test_readme import README, _commands

COMMANDS = ["rotnum", "build-group", "orbit", "probe-transitive",
            "probe-wandering", "fixed-points", "check-equiv", "euler-cocycle",
            "conjugacy-verdict"]


def _digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes)
                          else data.encode()).hexdigest()


def _run(argv) -> str:
    """The digest of one in-process run: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return _digest(f"{code}\n{out.getvalue()}\0{err.getvalue()}")


SESSION = {
    "rotnum --lift translate:0.3 --N 100":
        "46677abda1b7a990a9bde8b8cc5c06026a65d06323c0f56b3e68686607a6271b",
    "rotnum --lift sine:0.3,0.05 --N 10000 --output report.json":
        "07976480d80506ad906774aa61a2fb6f1b2311d5befc6cad48f36e8b6a53fed9",
    "build-group --alpha sqrt(2)-1 --n 2 --output g2.json":
        "07976480d80506ad906774aa61a2fb6f1b2311d5befc6cad48f36e8b6a53fed9",
    ("build-group --alpha (0+1*sqrt(2))/1 - 1 --n 3 --circle --k "
     "2 --g 1,0,1 --output c32.json"):
        "07976480d80506ad906774aa61a2fb6f1b2311d5befc6cad48f36e8b6a53fed9",
    "orbit --group g2.json --radius 5 --format csv --output orbit.csv":
        "07976480d80506ad906774aa61a2fb6f1b2311d5befc6cad48f36e8b6a53fed9",
    ("orbit --group g2.json --radius 50 --format svg --window 0,1 "
     "--output orbit.svg"):
        "07976480d80506ad906774aa61a2fb6f1b2311d5befc6cad48f36e8b6a53fed9",
    "probe-transitive --group g2.json --eps 0.02 --radius 50 --window 0,1":
        "ef11f19f4c6d82ce7486aa26ff859abcc1ed35ece0c7801a4aaafa38aabe540f",
    "probe-wandering --group g2.json --interval 0.2,0.4 --radius 20":
        "c131057ef1ab656b722ed284a4e3e6a61b779fe9fe742c18c9d4538a6d74b3b2",
    "fixed-points --lift sine:0.0,0.1":
        "cbe53abc9e80f4c64af35b5c0c187971359917280391507c14364501f781c188",
    "check-equiv --x sqrt(2)-1 --y sqrt(2)+1":
        "b1b782852be2c242b5ed608be81e18db783cb83d1fc0785c34e08fce6606ad40",
    "euler-cocycle --action c32.json --ball 1 --output table.json":
        "07976480d80506ad906774aa61a2fb6f1b2311d5befc6cad48f36e8b6a53fed9",
    "conjugacy-verdict --a c32.json --b c32.json --witness witness.json":
        "24a2ddfc3ac381662ae235fff4dee6a4030eab15da8fd85bc07d2293af132df5",
}

FILES = {
    "c32.json":
        "d87e56c8801017b106014a4676b8387c1025181c09175887811136555a6336ff",
    "g2.json":
        "687ca6c04f891fc0b1086ed2a19d69e646accfd229794e56cca8c8aa88696233",
    "orbit.csv":
        "7a991df25e2db983c6bcb31c9aa0b966384e63e9124e116df0badf7b5441ce21",
    "orbit.svg":
        "919b515ab4a54e5570c9b8e8687dd7387fbcb188cf11a907c205bad0250321dc",
    "report.json":
        "9d1ab7daeaab63eef0f913a0897369bb7288bbf9ae5d879e5407f8af7c100f92",
    "table.json":
        "9a1c850e5dbbe21260748d53afa288109265de58c15cb710a8c21e8da3841ccc",
}

HELP = {
    None:
        "a23be9648a2f2aa0183a8d3613d723ea3d8391dca23999c10c7ca487ab02dfdf",
    "rotnum":
        "40f066d8eaa17faca69f2cbd98351b9c18729d24db1f25ddc150ed78210ec553",
    "build-group":
        "b9a4764ab5adc9f8cc9c8939dbf547b551d83dfc62db7ae4e4716ad6dedfe11c",
    "orbit":
        "ee73c32cd5720062105fd8652f92984a0cc5e6350532b54c1ffd6cf660e357b4",
    "probe-transitive":
        "78699b8c1970a1021575f7f73bef22a167b8587ec9fb63e621940744a3cf59b7",
    "probe-wandering":
        "cbe84c5fd63ea686dec1041990a30acdfce18184f0a1f19beb39731934fcaa8f",
    "fixed-points":
        "666657e37a99f1079b4d0f07361d15274a0707d60b991b9ee00e22d1e0931b91",
    "check-equiv":
        "c7b0166927920c6145b725a4866c47e120e48be6d6b75866f37919b3232a7351",
    "euler-cocycle":
        "682bb88e774c1a8ddc82138bc0316ca201d52fbbad511dff81c1828f7af21d01",
    "conjugacy-verdict":
        "dab3bbc574ef22fa4f03b784610c1dba894485558188d736e8ba38f33e950230",
}


def test_readme_session_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    witness = re.search(r"for\s+instance\s+`(\{.*?\})`", README.read_text(), re.S)
    Path("witness.json").write_text(witness.group(1))
    runs = {" ".join(argv[1:]): _run(argv[1:]) for argv in _commands()}
    files = {p.name: _digest(p.read_bytes()) for p in sorted(tmp_path.iterdir())
             if p.name != "witness.json"}
    assert runs == SESSION
    assert files == FILES


@pytest.mark.parametrize("command", [None] + COMMANDS)
def test_help_bytes(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    assert _run(argv) == HELP[command]
