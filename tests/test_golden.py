"""Byte-exact ``--json`` output of every corpus command.

``bench/golden/corpus_cli.json`` pins the exit code and stdout of each
command the benchmark runs; this reads it without rewriting it, so any
change to an answer fails here as well as in the benchmark.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dgalgebra.cli import main as cli_main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden" / "corpus_cli.json").read_text(
        encoding="utf-8"
    )
)


def test_golden_covers_every_corpus_command():
    assert len(GOLDEN) == 11


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_corpus_command_matches_golden(command):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_main(command.split() + ["--json"])
    assert code == GOLDEN[command]["exit"]
    assert out.getvalue() == GOLDEN[command]["stdout"]
