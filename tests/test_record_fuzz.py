"""Property tests of the CLI's exit-code contract: any record, however
mangled, makes `detect` and `attack` exit 0, 1 or 2 without a traceback, and
so does any mangling of the flags of `detect`, `attack` and `generate`, typed
on the command line or read from a --config file, and any mangling of the
model file `generate` and `detect` read."""

import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from entmark.cli import main
from entmark.generation import generate
from entmark.lm import save_lm, skewed_lm, uniform_lm

DELETE = object()
# one value of every JSON type, plus near-misses of the valid shapes
JSON_VALUES = (None, True, 0, -1, 2.5, "", "inf", "x", [], [1, "a"], [-1], {"k": 1})


def _valid_record():
    res = generate(uniform_lm(4), [], 1.0, 40, "its", b"\x00\xff", np.random.default_rng(3))
    rec = res.to_record()
    rec["seed_tokens"] = res.tokens[: res.boundary]  # as `attack` writes it
    return rec


VALID = _valid_record()
# the required six, the optional key fields, metadata, the decoding regime
FIELDS = tuple(VALID) + ("top_p", "temperature")


def _mutated(mutations):
    rec = dict(VALID)
    for name, value in mutations:
        if value is DELETE:
            rec.pop(name, None)
        else:
            rec[name] = value
    return rec


records = st.one_of(
    st.lists(st.tuples(st.sampled_from(FIELDS),
                       st.one_of(st.just(DELETE), st.sampled_from(JSON_VALUES))),
             min_size=1, max_size=3).map(_mutated),
    st.sampled_from(JSON_VALUES),  # a line that is not a record object at all
)

COMMANDS = (
    ["detect", "--lm", "uniform:4", "--T", "3", "--k", "8"],
    ["detect", "--lm", "uniform:4", "--T", "3", "--k", "8", "--cost", "bs"],
    ["detect", "--lm", "uniform:4", "--T", "3", "--k", "8", "--mode", "scan", "--s-max", "2"],
    ["attack", "--attack", "substitute:0.2", "--vocab-size", "4"],
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(records)
def test_any_record_keeps_the_exit_code_contract(rec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        for cmd in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(cmd + ["--in", str(path), "--out", str(Path(tmp) / "out.jsonl")])
            assert rc in (0, 1, 2)
            assert "Traceback" not in err.getvalue()


# each command's flags with valid values; --in and --out stay fixed
FLAGS = {
    "detect": {"--lm": "uniform:4", "--mode": "key", "--cost": "its", "--k": "8", "--T": "3",
               "--h-mode": "soft", "--s-max": "2", "--seed": "0"},
    "attack": {"--attack": "substitute:0.2", "--vocab-size": "4", "--lm": "uniform:4",
               "--seed": "0"},
    "generate": {"--lm": "uniform:4", "--prompt-ids": "1,2", "--lambda": "1.0", "--m": "20",
                 "--count": "2", "--sampler": "bs", "--coding": "huffman", "--salt": "00ff",
                 "--seed": "0", "--top-p": "0.9", "--temperature": "1.5"},
}
# near-misses of every flag's valid values, kept small enough to run fast
FLAG_VALUES = ("", "-1", "0", "1", "3", "2.5", "nan", "inf", "1e3", "x", "-", "1,,9",
               "uniform:1", "uniform:x", "peaked:4,2", "skewed:0", "substitute:2", "crop:5:2",
               "insert:-1", "its", "bs", "multinomial", "huffman", "scan", "hard")


def _argv(command, mutations):
    flags = dict(FLAGS[command])
    for flag, value in mutations:
        if value is DELETE:
            flags.pop(flag, None)
        else:
            flags[flag] = value
    return [command] + [part for flag, value in flags.items() for part in (flag, value)]


argvs = st.sampled_from(tuple(FLAGS)).flatmap(lambda command: st.lists(
    st.tuples(st.sampled_from(tuple(FLAGS[command])),
              st.one_of(st.just(DELETE), st.sampled_from(FLAG_VALUES))),
    min_size=1, max_size=3).map(lambda mutations: _argv(command, mutations)))


def _run(argv, out):
    """Exit code and output bytes of one run, which must not print a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out", str(out)])
    assert "Traceback" not in err.getvalue()
    return rc, out.read_bytes() if out.exists() else None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(argvs)
def test_any_argv_keeps_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "in.jsonl"
        path.write_text(json.dumps(VALID) + "\n")
        tail = [] if argv[0] == "generate" else ["--in", str(path)]
        rc, out = _run(argv + tail, tmp / "out.jsonl")
        assert rc in (0, 1, 2)
        # the same flags as config lines, keyed with underscores, give the same run
        config = tmp / "run.conf"
        config.write_text("".join(f"{flag[2:].replace('-', '_')} = {shlex.quote(value)}\n"
                                  for flag, value in zip(argv[1::2], argv[2::2])))
        assert _run([argv[0], "--config", str(config)] + tail, tmp / "out2.jsonl") == (rc, out)


def _valid_model():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_lm(skewed_lm(4), path)
        return json.loads(path.read_text())


VALID_MODEL = _valid_model()
# near-misses of a 4-token model's fields: wrong sizes, non-integer counts,
# counts past int64, repeated or non-string tokens
MODEL_VALUES = JSON_VALUES + (
    1e300, float("nan"), [0, 1, 2, 3], [0.5, 1, 2, 3], [2**64, 0, 0, 0], ["a", "b", "c", "c"],
    [["x"] * 4] * 4, [[0] * 4] * 3, [[0] * 3] * 4, [[1e300] * 4] * 4, [[True] * 4] * 4,
    [[2**63] * 4] * 4, [[-1] * 4] * 4, 10**400)


def _mutated_model(mutations):
    doc = dict(VALID_MODEL)
    for name, value in mutations:
        if value is DELETE:
            doc.pop(name, None)
        else:
            doc[name] = value
    return doc


models = st.one_of(
    st.lists(st.tuples(st.sampled_from(tuple(VALID_MODEL)),
                       st.one_of(st.just(DELETE), st.sampled_from(MODEL_VALUES))),
             min_size=1, max_size=2).map(_mutated_model),
    st.sampled_from(JSON_VALUES),  # a file that is not a model object at all
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(models)
def test_any_model_file_keeps_the_exit_code_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = tmp / "model.json"
        model.write_text(json.dumps(doc))
        records = tmp / "in.jsonl"
        records.write_text(json.dumps(VALID) + "\n")
        for argv in (["generate", "--lm", str(model), "--m", "3"],
                     ["detect", "--lm", str(model), "--T", "3", "--k", "8",
                      "--in", str(records)]):
            rc, _ = _run(argv, tmp / "out.jsonl")
            assert rc in (0, 1, 2)
