"""Damaged input files: the readers raise the package's input errors, so
the CLI exits 5, and never anything else."""

import json
import re
import subprocess
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ellispec.io
from ellispec import (
    InvalidGraphError,
    InvalidPartitionError,
    WeightedGraph,
    load_csv,
    load_vds,
    read_graph,
    read_labels,
    write_graph,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# bytes that parsers treat specially, spliced in by the mutations
SPLICES = [b"\0", b"\n", b"\r", b" ", b"\t", b",", b"-", b"+", b".", b"e", b"E",
           b"%", b"x", b"\xea", b"9" * 25, b"nan", b"inf"]


def mutate(data, rng, edits):
    """``edits`` random edits of ``data``: cut the rest off, overwrite a
    byte, splice in a SPLICES entry, delete a byte, or replace one by a
    SPLICES entry."""
    data = bytearray(data)
    for _ in range(edits):
        op = int(rng.integers(5))
        pos = int(rng.integers(len(data) + 1))
        splice = SPLICES[int(rng.integers(len(SPLICES)))]
        if op == 0:
            del data[pos:]
        elif op == 1 and pos < len(data):
            data[pos] = int(rng.integers(256))
        elif op == 2:
            data[pos:pos] = splice
        elif op == 3 and pos < len(data):
            del data[pos]
        else:
            data[pos:pos + 1] = splice
    return bytes(data)


@st.composite
def damaged(draw, valid):
    """Random bytes, a truncated ``valid`` file, or a mutated one."""
    kind = draw(st.sampled_from(["random", "truncated", "mutated"]))
    if kind == "random":
        return draw(st.binary(max_size=200))
    if kind == "truncated":
        return valid[:draw(st.integers(0, len(valid)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return mutate(valid, rng, draw(st.integers(1, 4)))


VALID_CSV = b"1,2.5,0\n0.5,0.25,3\n2,1,1\n"
VALID_VDS = (b"VDS1" + (3).to_bytes(4, "little") + (2).to_bytes(4, "little")
             + bytes(4) + np.array([1.0, 2.5, 0.5, 3.0, 2.0, 1.0]).astype("<f8").tobytes())
VALID_LABELS = b"1\n2\n2\n1\n3\n"

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


# any other exception fails the property
@FUZZ
@given(damaged(VALID_CSV))
def test_damaged_csv_raises_only_invalid_graph(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    with suppress(InvalidGraphError):
        load_csv(path)


@FUZZ
@given(damaged(VALID_VDS))
def test_damaged_vds_raises_only_invalid_graph(tmp_path, data):
    path = tmp_path / "data.vds"
    path.write_bytes(data)
    with suppress(InvalidGraphError):
        load_vds(path)


@FUZZ
@given(damaged(VALID_LABELS))
def test_damaged_labels_raise_only_invalid_partition(tmp_path, data):
    path = tmp_path / "labels.txt"
    path.write_bytes(data)
    with suppress(InvalidPartitionError):
        read_labels(path)


# an entry line by the Matrix Market grammar: blank, or three numbers
# apart from blanks
NUMBER = rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
ENTRY_LINE = re.compile(rb"[ \t\r]*(?:%s[ \t\r]+%s[ \t\r]+%s)?[ \t\r]*"
                        % (NUMBER, NUMBER, NUMBER))
# bytes strung from number pieces and blanks, alone or as the fields of a
# line, mixed with whole numbers
PIECES = st.lists(st.sampled_from([b"1", b"7", b"+", b"-", b".", b"e", b"E",
                                   b" ", b"\t", b"\r"]), max_size=12).map(b"".join)
FIELDS = st.lists(st.one_of(PIECES, st.from_regex(NUMBER, fullmatch=True)),
                  min_size=1, max_size=5).map(b" ".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(PIECES, FIELDS), min_size=1, max_size=4))
def test_vectorized_entry_check_matches_the_pattern(lines):
    bad = ellispec.io._first_bad(b"\n".join(lines) + b"\n")
    rejected = [i for i, line in enumerate(lines) if not ENTRY_LINE.fullmatch(line)]
    assert (bad < 0) == (not rejected)
    if rejected:
        # the offset falls on the first line the pattern rejects, its
        # newline included
        start = sum(len(line) + 1 for line in lines[:rejected[0]])
        assert start <= bad <= start + len(lines[rejected[0]])


def fuzz_read_graph(workdir, cases):
    """Read ``cases`` seeded mutations of one small valid graph file and
    print the count of each outcome as JSON: 0 read, 5 InvalidGraphError.
    Prints each case's seed first, so that if the interpreter dies the
    last line names the file that killed it.  Run in a child process."""
    rng = np.random.default_rng(0)
    w = np.triu(rng.uniform(0.1, 1.0, (6, 6)) * (rng.uniform(size=(6, 6)) < 0.6), 1)
    w[np.arange(5), np.arange(1, 6)] = 0.5
    base = Path(workdir) / "base.mtx"
    write_graph(WeightedGraph(w + w.T), base)
    valid = base.read_bytes()
    path = Path(workdir) / "case.mtx"
    outcomes = {0: 0, 5: 0}
    for seed in range(cases):
        print(seed, flush=True)
        rng = np.random.default_rng(seed)
        path.write_bytes(mutate(valid, rng, int(rng.integers(1, 4))))
        try:
            read_graph(path)
            outcomes[0] += 1
        except InvalidGraphError:
            outcomes[5] += 1
    print(json.dumps(outcomes))


def test_mutated_graph_files_read_or_exit_5(tmp_path):
    # in a child process, so that a parser crash fails this test alone
    script = ("import sys; sys.path[:0] = sys.argv[1:3]; "
              "from test_fuzz_readers import fuzz_read_graph; "
              "fuzz_read_graph(sys.argv[3], 2000)")
    child = subprocess.run(
        [sys.executable, "-c", script, str(SRC), str(Path(__file__).parent),
         str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    lines = child.stdout.split()
    assert child.returncode == 0, (
        f"reading case {lines[-1] if lines else None} ended with "
        f"{child.returncode}: {child.stderr[-2000:]}")
    outcomes = json.loads(child.stdout.splitlines()[-1])
    # the mutations reach both outcomes
    assert outcomes["0"] > 100 and outcomes["5"] > 1000
