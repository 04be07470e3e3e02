"""Reading stored records: the two-file memo of load_derivation_records,
line splitting as a file opened as text splits it, and input that is not
UTF-8."""
import gc
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivekit import records
from derivekit.latex import parse_equation
from derivekit.records import (
    RecordError,
    derivation_record_from_json,
    derivation_record_to_json,
    load_derivation_records,
    load_prompt_records,
    open_text,
)
from helpers import load_rows_by_open

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def parses(monkeypatch):
    """The texts records.parse_equation is called on; no file is kept when
    the test starts."""
    calls = []

    def counted(text, sides=None):
        calls.append(text)
        return parse_equation(text, sides)

    monkeypatch.setattr(records, "parse_equation", counted)
    monkeypatch.setattr(records, "_kept", [])
    return calls


@pytest.fixture
def rows(small_dataset):
    """Six stored derivation rows, as JSON text."""
    return [json.dumps(derivation_record_to_json(r)) for r in small_dataset[1][:6]]


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def test_a_second_load_of_the_same_bytes_parses_nothing(rows, parses, tmp_path):
    path = _write(tmp_path / "a.jsonl", "\n".join(rows) + "\n")
    first = load_derivation_records(path)
    parsed = len(parses)
    assert parsed > 0
    # the same bytes under another name are the same records
    copy = _write(tmp_path / "copy.jsonl", path.read_text("utf-8"))
    for again in (load_derivation_records(path), load_derivation_records(copy)):
        assert len(parses) == parsed
        assert again is not first
        assert all(a is b for a, b in zip(again, first, strict=True))


def test_a_rewritten_file_is_parsed_again(rows, parses, tmp_path):
    # the fourth text is the second again, still kept; the fifth is the first
    # again, dropped when the third was loaded
    texts = [("\n".join(rows[:n]) + "\n") for n in (6, 2, 3, 2, 6)]
    expected = [[derivation_record_from_json(json.loads(row)) for row in text.splitlines()]
                for text in texts]
    path = tmp_path / "a.jsonl"
    for text, records_of_text, parses_it in zip(texts, expected, (True, True, True, False, True)):
        parsed = len(parses)
        _write(path, text)
        assert load_derivation_records(path) == records_of_text
        assert (len(parses) > parsed) == parses_it


def _parses_of(parses, *paths):
    """Whether each load of `paths`, in order, parsed its file."""
    parsed = []
    for path in paths:
        before = len(parses)
        load_derivation_records(path)
        parsed.append(len(parses) > before)
    return parsed


def test_the_last_two_files_are_kept(rows, parses, tmp_path):
    a, b, c = (_write(tmp_path / f"{name}.jsonl", row) for name, row in zip("abc", rows))
    assert _parses_of(parses, a, b, a, b, a) == [True, True, False, False, False]
    # c drops b, the file used least recently, and a is still kept
    assert _parses_of(parses, c, a, c, b) == [True, False, False, True]
    # b dropped a, the file used least recently of c and a
    assert _parses_of(parses, c, b, a) == [False, False, True]


def test_a_third_file_drops_the_oldest_records_before_it_parses(rows, parses, tmp_path,
                                                                monkeypatch):
    # a record is a tuple, which takes no weak reference; its derivation does
    oldest, newest = (
        weakref.ref(load_derivation_records(_write(tmp_path / name, row))[0].derivation)
        for name, row in (("a.jsonl", rows[0]), ("b.jsonl", rows[1])))
    alive = []
    parse = records.parse_equation

    def parse_and_look(text, sides=None):
        gc.collect()
        alive.append((oldest() is not None, newest() is not None))
        return parse(text, sides)

    monkeypatch.setattr(records, "parse_equation", parse_and_look)
    load_derivation_records(_write(tmp_path / "c.jsonl", rows[2]))
    assert alive and set(alive) == {(False, True)}


def test_a_failed_load_keeps_nothing(rows, parses, tmp_path):
    good = _write(tmp_path / "good.jsonl", "\n".join(rows) + "\n")
    bad = _write(tmp_path / "bad.jsonl", rows[0] + '\n{"id": "d9"}\n')
    expected = load_derivation_records(good)
    errors = []
    for _ in range(2):
        with pytest.raises(RecordError) as caught:
            load_derivation_records(bad)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"{bad}:2: malformed row: ")
    parsed = len(parses)
    assert load_derivation_records(good) == expected
    assert len(parses) > parsed
    # a file that cannot be read drops the kept records too
    with pytest.raises(FileNotFoundError):
        load_derivation_records(tmp_path / "absent.jsonl")
    parsed = len(parses)
    assert load_derivation_records(good) == expected
    assert len(parses) > parsed


def test_changing_a_returned_list_does_not_change_the_next_load(rows, parses, tmp_path):
    path = _write(tmp_path / "a.jsonl", "\n".join(rows) + "\n")
    loaded = load_derivation_records(path)
    expected = list(loaded)
    loaded.reverse()
    loaded[0] = None
    loaded.append(None)
    assert load_derivation_records(path) == expected


# line splitting and error line numbers, against a file read through open()
SPLITS = {
    "crlf": lambda rows: "\r\n".join(rows) + "\r\n",
    "lone-cr": lambda rows: "\r".join(rows),
    "mixed-endings": lambda rows: rows[0] + "\r\n" + rows[1] + "\r" + rows[2] + "\n" + rows[3],
    "blank-lines": lambda rows: "\n\n" + "\n  \n\t\n".join(rows) + "\n\n",
    # characters str.splitlines breaks at, inside a JSON string and after a row
    "separators-in-strings": lambda rows: "\n".join(
        row.replace('"id": "', '"id": "\u2028\x85\u2029', 1) for row in rows),
    "separators-after-rows": lambda rows: "\n".join(row + "\u2028\x85" for row in rows),
    "bad-json-after-crlf": lambda rows: "\r\n".join(rows[:3]) + "\r\n{\"id\": \r\n",
    "bad-row-after-lone-cr": lambda rows: "\r".join(rows[:3] + ['{"id": "d9"}']),
    "bad-row-after-separators": lambda rows: "\n".join(
        [row.replace('"id": "', '"id": "\u2028\x85', 1) for row in rows[:3]]
        + ['{"id": "d9", "steps": []}']),
    "not-an-object-after-blank-lines": lambda rows: rows[0] + "\n\n\r\n[1]\n",
}


@pytest.mark.parametrize("case", sorted(SPLITS))
def test_lines_split_as_a_file_opened_as_text(case, rows, parses, tmp_path):
    path = _write(tmp_path / "in.jsonl", SPLITS[case](rows))
    try:
        expected = load_rows_by_open(path, derivation_record_from_json)
    except RecordError as exc:
        with pytest.raises(RecordError) as caught:
            load_derivation_records(path)
        assert str(caught.value) == str(exc)
    else:
        assert load_derivation_records(path) == expected


LINE_PARTS = st.lists(st.tuples(st.text(alphabet="ab \x0b\x0c\x1c\x85\u2028\u2029", max_size=3),
                                st.sampled_from(["\n", "\r", "\r\n", ""])), max_size=8)


@given(LINE_PARTS, st.data())
@settings(max_examples=300, deadline=None)
def test_a_byte_that_is_not_utf8_is_on_the_line_a_text_reader_counts(parts, data):
    k = data.draw(st.integers(0, len(parts)))
    before, after = ("".join(line + end for line, end in half).encode("utf-8")
                     for half in (parts[:k], parts[k:]))
    line = len(list(io.TextIOWrapper(io.BytesIO(before + b"x"), encoding="utf-8")))
    with pytest.raises(RecordError) as caught:
        with open_text("in.jsonl", before + b"\xff" + after) as fh:
            fh.read()
    assert str(caught.value) == f"in.jsonl:{line}: not UTF-8 (invalid start byte)"


NOT_UTF8 = {
    b"\xff": 1,
    b' "\xe2\x80\xa8\xff"': 1,
    b"\n\r\n  \r\xff": 4,
    b"\r\n\r\n\xc3": 3,  # a truncated two-byte sequence at the end
    b"\n\xc2\x85\xe2\x80\xa8 \x0b\x1c\xed\xa0\x80": 2,  # an encoded surrogate
}


def _read_text(path):
    with open_text(path) as fh:
        return fh.read()


@pytest.mark.parametrize("data", sorted(NOT_UTF8), ids=repr)
def test_bytes_that_are_not_utf8_name_the_file_and_line(data, tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    for read in (_read_text, load_derivation_records):
        with pytest.raises(RecordError, match=f"^{re.escape(str(path))}:{NOT_UTF8[data]}: "
                                              r"not UTF-8 \("):
            read(path)


def test_a_pipe_that_is_not_utf8_names_the_line(tmp_path):
    # a pipe is read once, like a regular file; a second read would wait
    # for a new writer
    fifo = tmp_path / "in.jsonl"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(b"\n\xff\n",), daemon=True)
    errors = []

    def read():
        try:
            load_prompt_records(fifo)
        except RecordError as exc:
            errors.append(str(exc))

    reader = threading.Thread(target=read, daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=30)
    writer.join(timeout=30)
    assert not reader.is_alive() and not writer.is_alive()
    assert errors == [f"{fifo}:2: not UTF-8 (invalid start byte)"]


def test_dataset_build_in_one_process_matches_one_process_per_command(tmp_path):
    # commands of one process share the records of the last two files loaded;
    # a process per command parses every file itself
    spec = importlib.util.spec_from_file_location(
        "build_datasets", ROOT / "scripts" / "build_datasets.py")
    build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "build_datasets.py"),
                    "--train", "40", "--static", "20", "--out", str(tmp_path / "one")],
                   env=env, check=True, capture_output=True)
    (tmp_path / "each").mkdir()
    for argv in build.commands(tmp_path / "each", 40, 20, 0):
        subprocess.run([sys.executable, "-m", "derivekit.cli", *argv],
                       env=env, check=True, capture_output=True)
    one = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert len(one) == 18
    assert sorted(p.name for p in (tmp_path / "each").iterdir()) == one
    for name in one:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "each" / name).read_bytes()
