"""Every input file is read through ``errors.read_lines``.

A missing, unreadable or non-UTF-8 input of any kind is an ``InputError``
(exit code 1) naming the file, and a CRLF copy of a line-based input loads
to the same values as its LF copy. JSON or CSV that Python's parsers cannot
read into values is exit code 1 too, and no mutation of any input file
makes a command exit 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domainsim import cli
from domainsim.corpus import load_corpus, load_stopwords
from domainsim.embedding_metrics import load_adjectives, load_sentence_vectors, load_word_vectors
from domainsim.errors import InputError, read_lines
from domainsim.lexstats import (
    load_sentiment_lexicon,
    load_sentiment_lexicon_tsv,
    load_sentiwordnet,
)
from domainsim.pairs import HIGHER_IS_MORE_SIMILAR, PairMatrix


def test_read_lines_numbers_lines_from_one_and_keeps_their_endings(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes("a\r\nb\n\nc".encode())
    assert list(read_lines(path, "some")) == [(1, "a\r\n"), (2, "b\n"), (3, "\n"), (4, "c")]


@pytest.mark.parametrize("where", ["absent", "directory", "under-a-file"])
def test_read_lines_calls_a_path_with_no_file_not_found(tmp_path, where):
    (tmp_path / "directory").mkdir()
    (tmp_path / "file").write_text("")
    path = {"absent": tmp_path / "absent", "directory": tmp_path / "directory",
            "under-a-file": tmp_path / "file" / "x"}[where]
    with pytest.raises(InputError) as raised:
        list(read_lines(path, "some"))
    assert str(raised.value) == f"some file not found: {path}"


def test_read_lines_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"fine\nfine\nbad \xff\n")
    with pytest.raises(InputError) as raised:
        list(read_lines(path, "some"))
    assert str(raised.value) == f"{path}: not UTF-8 text (invalid start byte)"


def _by_key(vectors):
    return {key: vec.tolist() for key, vec in vectors.items()}


# Each line-based input: how to load it, and a file of that kind.
LINE_INPUTS = {
    "jsonl-corpus": (lambda path: load_corpus(path).reviews, "".join(
        json.dumps({"domain": "d", "label": label, "text": text}) + "\n"
        for label, text in (("positive", "Good film!"), ("negative", "bad, dull film")))),
    "stopwords": (load_stopwords, "the\nDon't\n\n"),
    "adjectives": (lambda path: load_adjectives(path).words, "# adjectives\nGood\nbad\n"),
    "word-vectors": (lambda path: _by_key(load_word_vectors(path)),
                     "2 2\ngood 1.0 0.5\nbad -0.5 1.0\n"),
    "sentence-vectors": (lambda path: _by_key(load_sentence_vectors(path)),
                         "d:0 1.0 0.5\nd:1 -0.5 1.0\n"),
    "tsv-lexicon": (load_sentiment_lexicon_tsv, "# word\tpos\tneg\ngood\t0.75\t0.0\nbad\t0\t0.5\n"),
    "tsv-lexicon-sniff": (load_sentiment_lexicon, "# word\tpos\tneg\ngood\t0.75\t0.0\n"),
    "sentiwordnet": (load_sentiwordnet, "# POS\tID\tPosScore\tNegScore\tSynsetTerms\tGloss\n"
                                        "a\t1\t0.5\t0.0\tgood#1 fine#2\n"
                                        "a\t2\t0.0\t0.5\tbad#1\tnot good\n"),
}


@pytest.mark.parametrize("kind", LINE_INPUTS)
def test_a_crlf_input_loads_as_its_lf_copy(tmp_path, kind):
    load, text = LINE_INPUTS[kind]
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert b"\r\n" in crlf.read_bytes()
    assert load(crlf) == load(lf)


def _inputs(tmp_path):
    """A valid file of each input kind, and for each kind a command that reads it."""
    rows = [("positive", "good film"), ("negative", "bad film")] * 2
    for name in ("A", "B"):
        (tmp_path / f"{name}.jsonl").write_text("".join(
            json.dumps({"domain": name, "label": label, "text": text}) + "\n"
            for label, text in rows))
    (tmp_path / "A.csv").write_text(
        "domain,label,text\n" + "".join(f"A,{label},{text}\n" for label, text in rows))
    out = tmp_path / "out"
    out.mkdir()
    domains = ["--domains", f"A={tmp_path / 'A.jsonl'},B={tmp_path / 'B.jsonl'}"]
    (tmp_path / "stop.txt").write_text("the\n")
    (tmp_path / "config.json").write_text(json.dumps({"domains": {"A": str(tmp_path / "A.jsonl")},
                                                      "out": str(out)}))
    cli.write_accuracy_matrix_csv(PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, ("A", "B"),
                                             [[90.0, 70.0], [60.0, 80.0]]), tmp_path / "matrix.csv")
    matrix = ["--accuracy-matrix", str(tmp_path / "matrix.csv")]
    cli.write_metric_csv(PairMatrix("LM1", HIGHER_IS_MORE_SIMILAR, ("A", "B"),
                                    [[0.0, 1.0], [1.0, 0.0]]), out / "metric_LM1.csv")
    for directory, lines in (("words", ["good 1.0 0.0", "bad 0.0 1.0"]),
                             ("sentences", [f"{{}}:{i} 1.0 {i}.0" for i in range(len(rows))])):
        (tmp_path / directory).mkdir()
        for name in ("A", "B"):
            (tmp_path / directory / f"{name}.vec").write_text(
                "".join(line.format(name) + "\n" for line in lines))
    (tmp_path / "adj.txt").write_text("good\nbad\n")
    (tmp_path / "lex.tsv").write_text("good\t0.8\t0.0\nbad\t0.0\t0.8\n")
    # Not .tsv or .txt, so the CLI reads it as SentiWordNet without sniffing it.
    (tmp_path / "swn.dat").write_text("a\t1\t0.8\t0.0\tgood#1\tg\na\t2\t0.0\t0.8\tbad#1\tg\n")
    words = [*domains, "--metrics", "ULM1", "--vectors", f"ULM1={tmp_path / 'words'}",
             "--adjectives", str(tmp_path / "adj.txt")]
    sentences = [*domains, "--metrics", "ULM2", "--vectors", f"ULM2={tmp_path / 'sentences'}",
                 "--sentiment-lexicon"]
    return {
        "jsonl-corpus": ("A.jsonl", ["ingest", *domains]),
        "csv-corpus": ("A.csv", ["ingest", "--format", "csv", "--domains",
                                 f"A={tmp_path / 'A.csv'}"]),
        "stopwords": ("stop.txt", ["ingest", *domains, "--stopwords", str(tmp_path / "stop.txt")]),
        "config": ("config.json", ["ingest", "--config", str(tmp_path / "config.json")]),
        "accuracy-matrix": ("matrix.csv", ["chart", *matrix]),
        "metric-csv": ("out/metric_LM1.csv", ["evaluate", *matrix, "--metrics", "LM1",
                                              "--k", "1"]),
        "word-vectors": ("words/A.vec", ["metrics", *words]),
        "adjectives": ("adj.txt", ["metrics", *words]),
        "sentence-vectors": ("sentences/A.vec",
                             ["metrics", *sentences, str(tmp_path / "lex.tsv")]),
        "tsv-lexicon": ("lex.tsv", ["metrics", *sentences, str(tmp_path / "lex.tsv")]),
        "sentiwordnet": ("swn.dat", ["metrics", *sentences, str(tmp_path / "swn.dat")]),
    }, out


INPUT_KINDS = ["jsonl-corpus", "csv-corpus", "stopwords", "config", "accuracy-matrix",
               "metric-csv", "word-vectors", "adjectives", "sentence-vectors", "tsv-lexicon",
               "sentiwordnet"]


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_a_non_utf8_byte_in_any_input_exits_one_naming_the_file(tmp_path, capsys, kind):
    inputs, out = _inputs(tmp_path)
    assert sorted(inputs) == sorted(INPUT_KINDS)
    name, argv = inputs[kind]
    path = tmp_path / name
    data = path.read_bytes()
    path.write_bytes(data[:-1] + b"\xff" + data[-1:])
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert f"{path}: not UTF-8 text (invalid start byte)\n" in capsys.readouterr().err


DEEP = "[" * 100_000 + "]" * 100_000
RECORD = '{"domain": "A", "label": "positive", "text": "good film"'
FIELD_LIMIT = "malformed CSV (field larger than field limit (131072))"

# Per case: the input kind, the file's new text, and the end of the error message.
UNPARSABLE = {
    "config-deep": ("config", DEEP, "malformed JSON config (maximum recursion depth exceeded"),
    "config-digits": ("config", '{"seed": ' + "1" * 5000 + "}",
                      "malformed JSON config (Exceeds the limit (4300 digits)"),
    "jsonl-corpus-deep": ("jsonl-corpus", f"{RECORD}}}\n{DEEP}\n",
                          "line 2: malformed JSON (maximum recursion depth exceeded"),
    "jsonl-corpus-digits": ("jsonl-corpus", f'{RECORD}, "n": {"1" * 5000}}}\n',
                            "line 1: malformed JSON (Exceeds the limit (4300 digits)"),
    "accuracy-matrix-field": ("accuracy-matrix",
                              "domain,A,B\nA,90," + "7" * 200_000 + "\nB,60,80\n",
                              f"line 2: {FIELD_LIMIT}"),
    "metric-csv-field": ("metric-csv", "metric_id,source,target,value,direction\n"
                         f"LM1,A,B,{'1' * 200_000},higher_is_more_similar\n",
                         f"line 2: {FIELD_LIMIT}"),
}


@pytest.mark.parametrize("case", UNPARSABLE)
def test_json_or_csv_that_python_cannot_parse_exits_one(tmp_path, capsys, case):
    kind, text, message = UNPARSABLE[case]
    inputs, out = _inputs(tmp_path)
    name, argv = inputs[kind]
    path = tmp_path / name
    path.write_text(text)
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}" in err and message in err, err


@pytest.fixture()
def valid_inputs(tmp_path):
    return tmp_path, *_inputs(tmp_path)


TOKENS = [b"\xff", b'"', b"NaN", b"inf", "\ufeff".encode(), b"\x00"]
EDITS = ["replace", "insert", "delete", "truncate", "inject"]


def _mutate(data, original: bytes) -> bytes:
    """``original`` with bytes replaced, inserted or deleted, cut short, or a token injected."""
    i, j = sorted(data.draw(st.lists(st.integers(0, len(original)), min_size=2, max_size=2)))
    noise = data.draw(st.binary(min_size=1, max_size=8))
    return {
        "replace": lambda: original[:i] + noise + original[j:],
        "insert": lambda: original[:i] + noise + original[i:],
        "delete": lambda: original[:i] + original[j:],
        "truncate": lambda: original[:i],
        "inject": lambda: original[:i] + data.draw(st.sampled_from(TOKENS)) + original[i:],
    }[data.draw(st.sampled_from(EDITS))]()


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(INPUT_KINDS), data=st.data())
def test_a_mutated_input_exits_zero_or_one(valid_inputs, kind, data):
    root, inputs, out = valid_inputs
    name, argv = inputs[kind]
    path = root / name
    original = path.read_bytes()
    path.write_bytes(_mutate(data, original))
    err = io.StringIO()
    try:
        # A warning, such as a dropped review's, is not an error here.
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = cli.main([*argv, "--out", str(out)])
    finally:
        path.write_bytes(original)
    assert code in (0, 1), err.getvalue()
