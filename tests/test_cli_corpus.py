"""The CLI's output, pinned: each row of ``cli_corpus.json`` runs through
``cli.main`` in process and must give its exit code, the sha256 of its
stdout, and the sha256 of its canonical form (the parsed JSON with every
float below 1e-12 in magnitude read as 0.0 and every other float rounded
to 12 significant digits, dumped with ``sort_keys``).

The byte digest pins the output on this numpy; the canonical digest shows
whether a change on another float rounding reaches beyond the 12th digit.
A residual at rounding level, near 1e-16, is noise that another order of
operations or another libm moves, so it reads as 0.0 and leaves the
canonical digest host-independent.
A change that moves output on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_cli_corpus.py

which prints the argv of each row whose digests or exit code it changed,
one row a line, and nothing when no row moved.  A new row is an
``{"argv": [...]}`` entry; the script fills in the rest and prints it.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from grassmoment import cli

CORPUS = pathlib.Path(__file__).with_name("cli_corpus.json")


def _rounded(value):
    if isinstance(value, float):
        return 0.0 if abs(value) < 1e-12 else float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    return value


def canonical(stdout: str) -> str:
    """The canonical form of one run's stdout; an empty stdout stays empty."""
    return json.dumps(_rounded(json.loads(stdout)), sort_keys=True) if stdout else ""


def run_row(argv: list[str]) -> dict:
    """One corpus row as ``cli.main(argv)`` gives it now."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    stdout = out.getvalue()
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "canonical_sha256": hashlib.sha256(canonical(stdout).encode()).hexdigest()}


ROWS = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row["argv"]) for row in ROWS])
def test_cli_output_matches_the_corpus(row):
    assert run_row(row["argv"]) == row


def test_canonical_form_rounds_floats_only():
    assert canonical('{"b":[0.12345678901234567,3],"a":true}') == '{"a": true, "b": [0.123456789012, 3]}'
    assert canonical("") == ""
    # rounding noise canonicalises alike; a change of 1e-11 still moves the digest
    noise = 4.577566798522237e-16
    assert canonical(json.dumps([noise])) == canonical(json.dumps([noise + 1e-20])) == "[0.0]"
    assert canonical(json.dumps([-noise])) == "[0.0]"
    for value in (noise, 0.5, 1.0):
        assert canonical(json.dumps([value])) != canonical(json.dumps([value + 1e-11]))


def test_every_subcommand_has_a_corpus_row():
    assert set(cli.COMMANDS) <= {row["argv"][0] for row in ROWS}


if __name__ == "__main__":
    rows = [run_row(row["argv"]) for row in ROWS]
    for old, new in zip(ROWS, rows):
        if old != new:
            print(" ".join(new["argv"]))
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")
