"""Seeded malformed input through the CLI.

About 300 mutations of the demo CSV and of the golden XES file (byte flips,
inserted quotes, CRs and NULs, deletions, truncation, a BOM, an over-long
field) are each read by ``scan``, ``evaluate`` and ``stats``; the CSV ones
also from small blocks of text.  Every run must exit with a documented
code, and a failing one must end its diagnostics with the documented
prefix: never a traceback.
"""

import csv
import random
from pathlib import Path
from unittest import mock

import pytest

from labelsplit import ingest
from labelsplit.cli import main

ROOT = Path(__file__).parent.parent
DEMO_CSV = ROOT / "demos" / "data" / "smart_home.csv"
GOLDEN_XES = Path(__file__).parent / "data" / "golden" / "convert.xes"

# README's exit codes and the prefix of the last stderr line of each
_PREFIXES = {1: "error: ", 2: "parse error: ", 3: "refinement error: "}
# a field longer than this is refused; a small limit keeps the files small
_FIELD_LIMIT = 4096
_COMMANDS = [["scan"],
             ["evaluate", "--threshold", "Bedroom motion,08:30,Tossing & turning,Getting up"],
             ["stats", "--format", "csv"]]


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one seeded mutation."""
    at = rng.randrange(len(data) + 1)
    kind = rng.randrange(8)
    if kind == 0:  # one bit flipped, which may leave invalid UTF-8
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    if kind in (1, 2, 3):  # a quote, a CR or a NUL inserted
        return data[:at] + b'"\r\0'[kind - 1:kind] + data[at:]
    if kind == 4:  # a span deleted
        return data[:at] + data[at + rng.randint(1, 40):]
    if kind == 5:  # truncated
        return data[:at]
    if kind == 6:  # a byte-order mark
        return b"\xef\xbb\xbf" + data
    return data[:at] + b"y" * (_FIELD_LIMIT + 1) + data[at:]  # an over-long field


def _mutations(path: Path, seed: int, n: int) -> list[bytes]:
    rng = random.Random(seed)
    data = path.read_bytes()
    out = []
    for _ in range(n):
        mutated = data
        for _ in range(rng.randint(1, 3)):
            mutated = _mutate(mutated, rng)
        out.append(mutated)
    return out


def _check_runs(capsys, path: Path, flag: str, base: list[str]) -> list[int]:
    """Each command's exit code on ``path``, each checked."""
    codes = []
    for command in _COMMANDS:
        code = main([*command, flag, str(path), *base, "--deterministic"])
        err = capsys.readouterr().err
        assert code in (0, *_PREFIXES), (command, err)
        assert "Traceback" not in err
        if code:
            assert err.splitlines()[-1].startswith(_PREFIXES[code]), (command, err)
        codes.append(code)
    return codes


@pytest.fixture
def field_limit():
    default = csv.field_size_limit(_FIELD_LIMIT)
    yield
    csv.field_size_limit(default)


def test_mutated_csv_exits_with_a_documented_code(tmp_path, capsys, field_limit):
    path = tmp_path / "log.csv"
    codes = []
    for k, data in enumerate(_mutations(DEMO_CSV, 26, 160)):
        path.write_bytes(data)
        for block in (ingest._BLOCK, 1 + k % 97):
            with mock.patch.object(ingest, "_BLOCK", block):
                codes += _check_runs(capsys, path, "--csv", ["--base-label", "Sensor"])
    # the mutations reach past the parser: some runs succeed, some fail
    assert {0, 1, 2} <= set(codes)


def test_mutated_xes_exits_with_a_documented_code(tmp_path, capsys):
    path = tmp_path / "log.xes"
    codes = []
    for data in _mutations(GOLDEN_XES, 26, 140):
        path.write_bytes(data)
        codes += _check_runs(capsys, path, "--xes", [])
    assert {0, 2} <= set(codes)
