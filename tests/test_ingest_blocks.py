"""The block path of ``ingest_csv`` against its row loop.

``ingest_csv`` parses a file a block at a time with ``np.loadtxt`` and
hands the first block it refuses, with the rest of the file, to the row
loop ``io._checked_rows``.  Here the row loop alone reads each whole file
(``row_loop_ingest``), and the two must give the same corpus bit for bit,
in the same order, or the same ``DataError`` text, line number included.
The block constant is made small, so that the files below span many
blocks and each quirk lands before, on and after a block boundary.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import trajsimp
from trajsimp import io as tio
from trajsimp.errors import DataError

HEADER = b"traj_id,t,x,y"


def row_loop_ingest(path):
    """The row loop alone over the whole file, as ingest_csv opens it."""
    bufs = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        tio._checked_rows(path, fh, 0, None, bufs)
    if not bufs:
        raise DataError(f"{path}: no data rows")
    return bufs


def outcomes(path):
    """(ingest_csv's, the row loop's) corpus as (id, bytes) pairs in order,
    or error text."""
    out = []
    for fn in (tio.ingest_csv, row_loop_ingest):
        try:
            out.append([(tid, bytes(v)) for tid, v in fn(path).items()])
        except DataError as exc:
            out.append(str(exc))
    return out


def write(tmp_path, data, name="in.csv"):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(tio, "_BLOCK", 64)


# Ids that csv quotes or pads, numeric spellings that float() takes and
# loadtxt may not, values that must keep their bits, and values each path
# must refuse alike.
IDS = (b"a", b"b c", b" pad ", b'"a,b"', b'"say ""hi"""', "ü日".encode(),
       b"", b"\xff\xfe", b"a\x00b")
NUMS = (b"1_0", "١٢".encode(), b"infinity", b"+.5", b" 2 ", b"\t3",
        b"-0.0", b"5e-324", b"2.225073858507201e-308", b"1e999", b"nan",
        b"0x10", b"", b"two", b"\xff", b"1\x00")
EXTRA = (b"note", b"\xff\xfe", b'"x,y"', b"")


@st.composite
def files(draw):
    """A header, then rows whose fields are mostly plain and sometimes odd,
    with blank and whitespace lines, wrong widths, duplicate and backwards
    timestamps, CRLF or LF ends, and a last line with or without its end."""
    header = draw(st.sampled_from([
        HEADER,
        b"y,x,t,traj_id,note",
        b"traj_id,x,t,x,y",  # a repeated name is read at its last place
    ]))
    names = header.split(b",")
    n = draw(st.integers(0, 40))
    # Half the files hold plain rows and blank lines alone; in the others
    # about one field in 20 is odd.
    quirky = draw(st.booleans())
    odd = st.integers(0, 19).map(lambda k: quirky and k == 0)
    kinds = ["row"] * 12 + ["blank", "space", "short", "long"] if quirky else ["row"] * 6 + ["blank"]
    lines = [header]
    t = 0
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(b"")
            continue
        if kind == "space":
            lines.append(b"  ")
            continue
        t += draw(st.sampled_from([1, 1, 1, 1, 1, 0, -1] if quirky else [1, 1, 1, 1, 1, 0]))
        tid = draw(st.sampled_from(IDS)) if draw(odd) else draw(st.sampled_from([b"a", b"b", b"c"]))
        values = {
            b"traj_id": tid,
            b"t": draw(st.sampled_from(NUMS)) if draw(odd) else repr(float(t)).encode(),
            b"x": draw(st.sampled_from(NUMS)) if draw(odd) else repr(draw(
                st.floats(allow_nan=False, allow_infinity=False))).encode(),
            b"y": draw(st.sampled_from(NUMS)) if draw(odd) else str(draw(
                st.integers(-10**6, 10**6))).encode(),
            b"note": draw(st.sampled_from(EXTRA)),
        }
        fields = [values[name] for name in names]
        if kind == "short":
            fields = fields[:-1]
        elif kind == "long":
            fields.append(b"9")
        lines.append(b",".join(fields))
    eol = draw(st.sampled_from([b"\n", b"\r\n"])) if quirky else b"\n"
    end = eol if draw(st.booleans()) else b""
    return eol.join(lines) + end


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files())
@example(HEADER + b"\na,0,1,2\n\n\n  \na,1,2,3\n")
@example(HEADER + b"\nb,0,1,1\na,0,1_0,2\n")
@example(HEADER + b"\r\na,0,1,2\r\na,1,2,3\r\n")
@example(HEADER + b"\na,0,-0.0,5e-324\na,1,2.5e-310,-0.0")
def test_block_path_matches_the_row_loop(tmp_path, monkeypatch, data):
    for block in (64, 1 << 16):
        monkeypatch.setattr(tio, "_BLOCK", block)
        fast, slow = outcomes(write(tmp_path, data))
        assert fast == slow, block


def test_the_files_take_both_paths(tmp_path, monkeypatch):
    """The strategy reaches corpora the block path takes whole, errors it
    raises itself, and files it hands to the row loop part way."""
    taken = []
    take = tio._take_block

    def spy(*args):
        lines = take(*args)
        taken.append(lines is not None)
        return lines

    monkeypatch.setattr(tio, "_take_block", spy)
    monkeypatch.setattr(tio, "_BLOCK", 64)
    seen = set()

    @settings(max_examples=200, database=None)
    @given(files())
    def run(data):
        taken.clear()
        fast, _ = outcomes(write(tmp_path, data))
        seen.add((isinstance(fast, str), not all(taken), any(taken)))

    run()
    # (error, handed to the row loop, some block taken)
    assert {(False, False, True), (False, True, True), (True, True, True)} <= seen


def rows(n, t=lambda i: i, tid="a"):
    return [f"{tid},{t(i)!r},{i * 0.5!r},{-i!r}".encode() for i in range(n)]


@pytest.mark.parametrize("problem", ["repeat", "backwards"])
def test_a_bad_timestamp_near_every_block_boundary(tmp_path, small_blocks, problem):
    """A repeated or backwards timestamp at each row of a file that spans
    many 64-byte blocks: before, on and after every boundary."""
    for k in range(1, 30):
        def t(i):
            if i < k:
                return float(i)
            return float(i - 1) if problem == "repeat" else i - 1.5
        lines = [HEADER, *rows(30, t)]
        fast, slow = outcomes(write(tmp_path, b"\n".join(lines) + b"\n"))
        assert fast == slow, k
        if problem == "backwards":
            assert fast == slow == (f"{tmp_path / 'in.csv'} row {k + 2}: trajectory 'a' "
                                    f"timestamp {k - 1.5!r} goes backwards from "
                                    f"{float(k - 1)!r}")


def test_interleaved_trajectories_over_many_blocks(tmp_path, small_blocks, monkeypatch):
    """A clean interleaved feed is taken block by block, none refused."""
    taken = []
    take = tio._take_block
    monkeypatch.setattr(tio, "_take_block", lambda *args: taken.append(take(*args)) or taken[-1])
    lines = [HEADER]
    for i in range(200):
        # Timestamps fall over each run of seven rows and rise in each trajectory.
        lines.append(f"v{i % 7},{i // 7 - (i % 7) / 10!r},{i * 1.5!r},{-i / 3!r}".encode())
    fast, slow = outcomes(write(tmp_path, b"\n".join(lines)))
    assert isinstance(fast, list) and fast == slow
    assert [tid for tid, _ in fast] == [f"v{k}" for k in range(7)]
    assert len(taken) > 50 and None not in taken


def test_a_trajectory_that_comes_back_must_rise_past_its_last_row(tmp_path, small_blocks):
    # b's row at t=3 sits blocks after its row at t=5.
    lines = [HEADER, b"b,5,0,0", *rows(20, tid="a"), b"b,3,1,1"]
    fast, slow = outcomes(write(tmp_path, b"\n".join(lines) + b"\n"))
    assert fast == slow and "row 23: trajectory 'b' timestamp 3.0 goes backwards" in fast


@pytest.mark.parametrize("sep", [b"\n", b"\r\n"])
def test_blank_lines_over_whole_blocks_never_reach_loadtxt(tmp_path, small_blocks,
                                                           monkeypatch, sep):
    calls = []
    loadtxt = np.loadtxt

    def spy(lines, *args, **kwargs):
        calls.append(list(lines))
        assert any(calls[-1]), "loadtxt was given blank lines only"
        return loadtxt(calls[-1], *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    data = sep.join([HEADER, *rows(5), *[b""] * 300, *rows(5, lambda i: i + 10)]) + sep
    fast, slow = outcomes(write(tmp_path, data))
    assert isinstance(fast, list) and fast == slow
    assert calls


def test_a_crlf_corpus_takes_the_block_path(tmp_path, small_blocks, monkeypatch):
    """Each \\r of a CRLF file, the header's included, opens a \\r\\n, so no
    block reaches the row loop and the corpus is its LF twin's, byte for
    byte; a lone \\r still goes to the row loop."""
    loops = []
    checked = tio._checked_rows

    def spy(path, lines, *args):
        lines = list(lines)
        loops.append(any(lines))
        return checked(path, lines, *args)

    monkeypatch.setattr(tio, "_checked_rows", spy)
    lines = [HEADER, *rows(30), b"", *rows(30, lambda i: i + 30, tid="b")]
    lf, crlf = (write(tmp_path, sep.join(lines) + sep, name)
                for sep, name in ((b"\n", "lf.csv"), (b"\r\n", "crlf.csv")))
    corpus = [(tid, bytes(v)) for tid, v in tio.ingest_csv(crlf).items()]
    assert corpus == [(tid, bytes(v)) for tid, v in tio.ingest_csv(lf).items()]
    assert len(corpus) == 2 and loops == [False, False]
    lone = write(tmp_path, b"\r\n".join(lines[:20]) + b"\r" + b"\r\n".join(lines[20:]))
    fast, slow = outcomes(lone)
    assert fast == slow and loops[-2] is True


@pytest.mark.parametrize("length", [200, 131_073])
def test_lines_longer_than_a_block_or_the_field_limit(tmp_path, small_blocks, length):
    """A 200-byte note spans blocks of 64 bytes and is read whole; a line
    over csv.field_size_limit() is an error naming its line, as in the
    row loop."""
    note = b"n" * length
    lines = [b"traj_id,t,x,y,note", b"a,0,1,2,x", b"a,1,2,3," + note, b"a,2,3,4,x"]
    fast, slow = outcomes(write(tmp_path, b"\n".join(lines) + b"\n"))
    assert fast == slow
    if length > csv.field_size_limit():
        assert "row 3: field larger than field limit" in fast
    else:
        assert isinstance(fast, list)


def test_a_lowered_field_limit_is_honoured(tmp_path):
    limit = csv.field_size_limit()
    data = b"\n".join([HEADER, *rows(50), b"a,99," + b"1" * 40 + b",0"]) + b"\n"
    try:
        csv.field_size_limit(30)
        fast, slow = outcomes(write(tmp_path, data))
    finally:
        csv.field_size_limit(limit)
    assert fast == slow and "row 52: field larger than field limit (30)" in fast


def test_a_character_split_across_reads_is_decoded_whole(tmp_path, small_blocks):
    """Each 64-byte read ends inside some row's two- or three-byte id; no
    row may be refused for it."""
    lines = [HEADER]
    for i in range(60):
        lines.append(f"{'ü' * (i % 5)}日{i % 3},{i},{i},{i}".encode())
    fast, slow = outcomes(write(tmp_path, b"\n".join(lines) + b"\n"))
    assert isinstance(fast, list) and fast == slow


def test_stdin_gives_what_the_file_gives(tmp_path):
    """compress reads --input /dev/stdin through the same single pass."""
    lines = [HEADER]
    for i in range(12_000):  # a few blocks of 64 KiB
        lines.append(f"v{i % 3},{i // 3},{(i * 7) % 113 * 1.5!r},{i % 17!r}".encode())
    data = b"\n".join(lines) + b"\n"
    path = write(tmp_path, data)
    env = dict(os.environ, PYTHONPATH=str(Path(trajsimp.__file__).parents[1]))
    cmd = [sys.executable, "-c", "import sys; from trajsimp.cli import main; "
           "sys.exit(main(sys.argv[1:]))", "compress", "--algo", "operb-a",
           "--epsilon", "5"]
    outs = []
    for name, src in (("file.csv", path), ("stdin.csv", "/dev/stdin")):
        out = tmp_path / name
        proc = subprocess.run(cmd + ["--input", src, "--output", str(out)],
                              input=data, capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] and outs[0].count(b"\n") > 3
