"""Random corruptions of every file the CLI reads, run through main()
in-process: each run must end in exit 0, or in exit 1 or 2 with exactly one
line on stderr. No exception may escape main()."""

import contextlib
import io
import json
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brandalign.cli import main

TRAIN = ["--dim", "4", "--sub-dim", "2", "--epochs", "1", "--n-neg", "1"]
FILES = {"catalog": "catalog.jsonl", "sessions": "sessions_B.jsonl",
         "mapping": "mapping.tsv", "embeddings": "A.emb",
         "projection": "lp.proj"}
# an integer of more digits than json's int() converts
DIGITS = "9" * 5000
# JSON values a field or a whole record is swapped for; "<digits>" is
# written as DIGITS, which json.dumps cannot write
VALUES = [5, -1.5, "x", True, None, [], {}, [0.5], [[0.5, 0.5]],
          float("nan"), 10 ** 400, "<digits>"]
# tokens a field of a text file is swapped for
TOKENS = ["x", "", "NaN", "inf", "-1", "0", "2.5", "1e400", "h00000",
          "9" * 30, DIGITS]


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    # warnings (a click outside its session's market) are not errors; they
    # are kept off stderr so that only the exit contract is judged
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings(record=True):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


def _commands(p: dict, out) -> list[list]:
    """The pipeline over the files in p: train the target brand plain and
    with the regularizer, fit a projection, and evaluate the source space
    through a projection and across brands."""
    return [
        ["train", "--catalog", p["catalog"], "--sessions", p["sessions"],
         "--brand", "B", "--out", out / "B.emb", *TRAIN],
        ["train", "--catalog", p["catalog"], "--sessions", p["sessions"],
         "--brand", "B", "--out", out / "B_da.emb", "--lambda", "1",
         "--source-embeddings", p["embeddings"], "--mapping", p["mapping"],
         *TRAIN],
        ["align", "--source-emb", p["embeddings"], "--target-emb",
         p["embeddings"], "--mapping", p["mapping"], "--out", out / "w.proj"],
        ["eval", "--catalog", p["catalog"], "--sessions", p["sessions"],
         "--brand", "B", "--embeddings", p["embeddings"],
         "--apply-projection", p["projection"], "--out", out / "m.jsonl"],
        ["eval", "--catalog", p["catalog"], "--sessions", p["sessions"],
         "--brand", "B", "--embeddings", p["embeddings"], "--cross-brand",
         "--mapping", p["mapping"], "--out", out / "x.jsonl"],
    ]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    d = tmp_path_factory.mktemp("corruption")
    assert _run(["gen", "--out-dir", d, "--markets", "2",
                 "--hotels-per-market", "6", "--sessions", "80",
                 "--amenity-dim", "3", "--seed", "3"])[0] == 0
    assert _run(["train", "--catalog", d / "catalog.jsonl",
                 "--sessions", d / "sessions_A.jsonl", "--brand", "A",
                 "--out", d / "A.emb", *TRAIN])[0] == 0
    assert _run(["align", "--source-emb", d / "A.emb", "--target-emb",
                 d / "A.emb", "--mapping", d / "mapping.tsv",
                 "--out", d / "lp.proj"])[0] == 0
    paths = {kind: d / name for kind, name in FILES.items()}
    for argv in _commands(paths, d):
        assert _run(argv) == (0, "")
    return paths


@st.composite
def _corrupted(draw, text: str, kind: str) -> bytes:
    lines = text.splitlines()
    op = draw(st.sampled_from(["field", "field", "nest", "drop_field",
                               "record", "drop_line", "repeat_line",
                               "truncate", "byte"]))
    if op == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    if op == "byte":  # never valid UTF-8
        raw = bytearray(text.encode())
        raw[draw(st.integers(0, len(raw) - 1))] = 0xFF
        return bytes(raw)
    i = draw(st.integers(0, len(lines) - 1))
    if op == "drop_line":
        del lines[i]
    elif op == "repeat_line":
        lines.insert(i, lines[i])
    elif kind in ("catalog", "sessions"):
        obj = json.loads(lines[i])
        key = draw(st.sampled_from(sorted(obj)))
        if op == "field":
            obj[key] = draw(st.sampled_from(VALUES))
        elif op == "nest":
            obj[key] = [obj[key]]
        elif op == "drop_field":
            del obj[key]
        else:
            obj = draw(st.sampled_from(VALUES))
        lines[i] = json.dumps(obj).replace('"<digits>"', DIGITS)
    else:
        sep = "\t" if kind == "mapping" else " "
        fields = lines[i].split(sep)
        j = draw(st.integers(0, len(fields) - 1))
        if op in ("field", "record"):
            fields[j] = draw(st.sampled_from(TOKENS))
        elif op == "nest":
            fields.insert(j, fields[j])
        else:
            del fields[j]
        lines[i] = sep.join(fields)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("kind", sorted(FILES))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_input_ends_in_one_line_error_or_success(world, tmp_path,
                                                           kind, data):
    text = world[kind].read_text()
    bad = tmp_path / world[kind].name
    corrupted = data.draw(_corrupted(text, kind))
    bad.write_bytes(corrupted)
    # invalid UTF-8, or an integer json cannot convert, is always an error
    # that names the file and line
    names_line = b"\xff" in corrupted or (kind in ("catalog", "sessions")
                                          and DIGITS.encode() in corrupted)
    paths = dict(world, **{kind: bad})
    for argv in _commands(paths, tmp_path):
        if bad not in argv:
            continue
        rc, err = _run(argv)
        assert rc == 0 or (rc in (1, 2) and len(err.strip().splitlines()) == 1), \
            (argv[0], rc, err)
        if names_line:
            assert re.match(rf"error: {re.escape(str(bad))}:\d+: ", err), (argv[0], err)
