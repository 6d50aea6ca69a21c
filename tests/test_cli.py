import json

import numpy as np
import pytest

from entmark import cli
from entmark.cli import build_parser, main
from entmark.coding import codes_for_lm
from entmark.detection import DetectionConfig, detect_pvalue
from entmark.generation import GenerationResult, key_sequence_for
from entmark.lm import peaked_lm


def run(args):
    return main(list(args))


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@pytest.fixture
def model_file(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("red green blue red green blue cyan red blue green cyan red\n")
    out = tmp_path / "model.json"
    assert run(["train-lm", "--corpus", str(corpus), "--out", str(out)]) == 0
    return out


def test_train_generate_detect_pipeline(tmp_path, model_file):
    gen = tmp_path / "gen.jsonl"
    rc = run(["generate", "--lm", str(model_file), "--lambda", "1.0", "--m", "90",
              "--count", "3", "--sampler", "its", "--seed", "5", "--out", str(gen)])
    assert rc == 0
    records = read_jsonl(gen)
    assert len(records) == 3
    assert all(len(r["tokens"]) == 90 for r in records)

    det = tmp_path / "det.jsonl"
    rc = run(["detect", "--in", str(gen), "--lm", str(model_file), "--cost", "its",
              "--T", "49", "--seed", "7", "--out", str(det)])
    assert rc == 0
    reports = read_jsonl(det)
    assert all(r["p_value"] == pytest.approx(1 / 50) for r in reports)
    assert all(r["mode"] == "key" for r in reports)


def test_generate_attack_detect_survives(tmp_path):
    gen = tmp_path / "gen.jsonl"
    atk = tmp_path / "atk.jsonl"
    det = tmp_path / "det.jsonl"
    assert run(["generate", "--lm", "peaked:8,0.4", "--lambda", "2.0", "--m", "200",
                "--sampler", "bs", "--seed", "3", "--out", str(gen)]) == 0
    assert run(["attack", "--in", str(gen), "--attack", "substitute:0.1",
                "--vocab-size", "8", "--seed", "4", "--out", str(atk)]) == 0
    attacked = read_jsonl(atk)[0]
    assert attacked["attack"] == ["substitute:0.1"]
    assert "seed_tokens" in attacked
    assert run(["detect", "--in", str(atk), "--lm", "peaked:8,0.4", "--cost", "bs",
                "--T", "49", "--seed", "5", "--out", str(det)]) == 0
    assert read_jsonl(det)[0]["p_value"] == pytest.approx(1 / 50)


def test_detect_scan_mode(tmp_path):
    gen = tmp_path / "gen.jsonl"
    det = tmp_path / "det.jsonl"
    assert run(["generate", "--lm", "skewed:4", "--lambda", "1.0", "--m", "120",
                "--sampler", "its", "--salt", "00ff", "--seed", "11",
                "--out", str(gen)]) == 0
    boundary = read_jsonl(gen)[0]["boundary"]
    assert run(["detect", "--in", str(gen), "--lm", "skewed:4", "--mode", "scan",
                "--cost", "its", "--T", "49", "--s-max", "5", "--seed", "12",
                "--out", str(det)]) == 0
    report = read_jsonl(det)[0]
    assert report["mode"] == "scan"
    assert report["boundary"] == boundary


def test_eval_roc_example(tmp_path):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    out = tmp_path / "roc.json"
    pos.write_text("0.9\n0.4\n")
    neg.write_text("0.5\n0.1\n")
    assert run(["eval-roc", "--pos", str(pos), "--neg", str(neg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["auc"] == pytest.approx(0.75)
    neg.write_text("0.5\nnan\n")
    assert run(["eval-roc", "--pos", str(pos), "--neg", str(neg), "--out", str(out)]) == 1


def test_exit_codes(tmp_path, model_file):
    bad = tmp_path / "truncated.jsonl"
    bad.write_text('{"tokens": [1, 2')
    assert run(["detect", "--in", str(bad), "--lm", str(model_file)]) == 2
    assert run(["detect", "--in", str(tmp_path / "missing.jsonl"),
                "--lm", str(model_file)]) == 2
    assert run(["generate", "--lm", str(model_file), "--lambda", "-3", "--m", "5"]) == 1
    assert run(["generate", "--lm", str(model_file), "--sampler", "gumbel"]) == 1
    gen = tmp_path / "g.jsonl"
    assert run(["generate", "--lm", str(model_file), "--m", "60", "--out", str(gen)]) == 0
    assert run(["detect", "--in", str(gen), "--lm", str(model_file), "--mode", "scan",
                "--s-max", "-1"]) == 1
    # removed flags and subcommands are usage errors
    assert run(["detect", "--in", str(gen), "--lm", str(model_file),
                "--backend", "python"]) == 1
    assert run(["benchmark"]) == 1


@pytest.mark.parametrize("cost", ["its", "bs"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_detect_out_of_range_token_exits_1(tmp_path, capsys, cost, bad):
    gen = tmp_path / "gen.jsonl"
    assert run(["generate", "--lm", "uniform:4", "--lambda", "1.0", "--m", "60",
                "--sampler", cost, "--seed", "1", "--out", str(gen)]) == 0
    rec = read_jsonl(gen)[0]
    rec["tokens"][-1] = bad
    gen.write_text(json.dumps(rec) + "\n")
    assert run(["detect", "--in", str(gen), "--lm", "uniform:4", "--cost", cost,
                "--T", "9"]) == 1
    assert f"token id {bad} out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["detect", "--T", "1000000000000000"],
    ["exp", "pvalue-validity", "--trials", "100000000000000"],
])
def test_input_past_what_can_be_allocated_exits_1(tmp_path, capsys, argv):
    # each asks NumPy for petabytes up front, which fails before anything is
    # allocated; the CLI reports it as bad input, not with a traceback
    if argv[0] == "detect":
        gen = tmp_path / "gen.jsonl"
        assert run(["generate", "--lm", "uniform:4", "--lambda", "1.0", "--m", "60",
                    "--seed", "1", "--out", str(gen)]) == 0
        argv = [*argv, "--in", str(gen), "--lm", "uniform:4"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    ("generate", "--temperature"), ("generate", "--lambda"), ("train-lm", "--smoothing"),
])
def test_nan_flag_exits_1(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    if command == "train-lm":
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b a c b a\n")
        argv = ["train-lm", "--corpus", str(corpus)]
    else:
        argv = ["generate", "--lm", "uniform:4", "--m", "5"]
    assert run(argv + [flag, "nan", "--out", str(out)]) == 1
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, flag, value", [
    ("collision-bound", "--cells", "nan"), ("collision-bound", "--cells", "inf"),
    ("error-lower-bound", "--c", "nan"), ("error-lower-bound", "--c", "inf"),
    ("error-lower-bound", "--c", "-0.5"),
])
def test_exp_rejects_a_bad_float(tmp_path, capsys, experiment, flag, value):
    out = tmp_path / "rec.json"
    assert run(["exp", experiment, flag, value, "--m", "5", "--samples", "10",
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "must be" in captured.err and captured.out == ""
    assert not out.exists()


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# defaults\nlm = uniform:4\nm = 25\nseed = 9\nsampler = bs\n")
    out = tmp_path / "gen.jsonl"
    assert run(["--config", str(cfg), "generate", "--out", str(out)]) == 0
    rec = read_jsonl(out)[0]
    assert rec["m"] == 25 and rec["sampler"] == "bs"
    # explicit flags win over config values
    assert run(["--config", str(cfg), "generate", "--m", "10", "--out", str(out)]) == 0
    assert read_jsonl(out)[0]["m"] == 10
    # a trailing --config with no file name is a usage error, a missing file
    # an I/O error
    assert run(["generate", "--config"]) == 1
    assert run(["--config", str(tmp_path / "absent.conf"), "generate"]) == 2


def test_config_values_are_the_flags_they_name(tmp_path, model_file):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"lambda = 0\nlm = {model_file}\nm = 6\nseed = 3\nsampler = bs\n"
                   "prompt = 'red green'\n")
    by_config, by_flags = tmp_path / "c.jsonl", tmp_path / "f.jsonl"
    assert run(["--config", str(cfg), "generate", "--out", str(by_config)]) == 0
    assert run(["generate", "--lambda", "0", "--lm", str(model_file), "--m", "6", "--seed", "3",
                "--sampler", "bs", "--prompt", "red green", "--out", str(by_flags)]) == 0
    assert by_config.read_bytes() == by_flags.read_bytes()
    rec = read_jsonl(by_config)[0]
    assert rec["lambda"] == 0.0 and len(rec["prompt"]) == 2


@pytest.mark.parametrize("argv, line", [
    (["generate"], "lamda = 0"), (["generate"], "count = 1.5"),
    (["generate"], "entropy_threshold = 0"), (["generate"], "prompt = 'red"),
    (["exp", "pvalue-validity"], "T = [1]"), (["detect"], "infile = in.jsonl"),
    (["generate"], "count = 0"), (["generate"], "count = -1"),
])
def test_bad_config_line_exits_1(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"lm = uniform:4\n{line}\n")
    out = tmp_path / "out.jsonl"
    assert run(["--config", str(cfg)] + argv + ["--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_exp_attack_replaces_its_default(tmp_path):
    parse = build_parser().parse_args
    assert parse(["exp", "attack-auc", "--attack", "delete:0.2"]).attack == ["delete:0.2"]
    cfg = tmp_path / "run.conf"
    cfg.write_text("attack = delete:0.2\n")
    out = tmp_path / "rec.json"
    for argv, attacks in ((["exp", "attack-auc"], ["substitute:0.1"]),
                          (["--config", str(cfg), "exp", "attack-auc", "--attack", "insert:0.1"],
                           ["delete:0.2", "insert:0.1"])):
        # a run this small may miss its AUC bounds and exit 1
        assert run(argv + ["--m", "30", "--samples", "3", "--out", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["config"]["attacks"] == attacks


def test_attack_auc_records_specs_it_can_read_back(tmp_path):
    out = tmp_path / "rec.json"
    argv = ["exp", "attack-auc", "--attack", "crop:1:20", "--attack", "paraphrase-proxy"]
    assert run(argv + ["--m", "30", "--samples", "3", "--out", str(out)]) in (0, 1)
    assert json.loads(out.read_text())["config"]["attacks"] == [
        "crop:1:20", "substitute:0.25", "insert:0.1"]


@pytest.mark.parametrize("experiment, flags", [
    ("seed-collisions", ["--trials", "0"]), ("covariance-gap", ["--m", "0"]),
    ("covariance-gap", ["--samples", "1"]), ("pvalue-validity", ["--trials", "0"]),
    ("hoeffding-bound", ["--k-values", "0"]),
])
def test_exp_rejects_a_count_that_leaves_a_metric_undefined(capsys, experiment, flags):
    assert run(["exp", experiment] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "must be" in captured.err
    assert "Traceback" not in captured.err


def test_attack_auc_survives_texts_the_attack_empties(capsys):
    # at this length and rate some attacked texts come out empty
    argv = ["exp", "attack-auc", "--lm", "peaked:8,0.4", "--m", "6", "--lambda", "0.5",
            "--samples", "20", "--attack", "delete:0.9"]
    assert run(argv) in (0, 1)
    captured = capsys.readouterr()
    assert json.loads(captured.out)["experiment"] == "attack-auc"
    assert "error" not in captured.err


def test_exp_subcommands(tmp_path, capsys):
    assert run(["exp", "collision-bound", "--cells", "365", "--p", "0.5"]) == 0
    assert "22.49" in capsys.readouterr().out
    out = tmp_path / "rec.json"
    assert run(["exp", "covariance-gap", "--vocab-size", "2", "--m", "30",
                "--samples", "400", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "covariance-gap" and doc["passed"]


def test_huffman_coding_round_trip(tmp_path, model_file):
    gen = tmp_path / "gen.jsonl"
    det = tmp_path / "det.jsonl"
    assert run(["generate", "--lm", str(model_file), "--lambda", "1.0", "--m", "80",
                "--sampler", "bs", "--coding", "huffman", "--seed", "2",
                "--out", str(gen)]) == 0
    assert read_jsonl(gen)[0]["coding"] == "huffman"
    # the code comes from the record's "coding" field, not from a flag
    assert run(["detect", "--in", str(gen), "--lm", str(model_file), "--cost", "bs",
                "--T", "49", "--seed", "3", "--out", str(det)]) == 0
    assert read_jsonl(det)[0]["p_value"] == pytest.approx(1 / 50)
    assert run(["detect", "--in", str(gen), "--lm", str(model_file), "--cost", "bs",
                "--coding", "huffman"]) == 1  # the flag is gone


def test_detect_takes_the_key_kind_from_the_record(tmp_path, capsys):
    gen, plain, forced = (tmp_path / name for name in ("gen.jsonl", "d1.jsonl", "d2.jsonl"))
    assert run(["generate", "--lm", "peaked:8,0.4", "--lambda", "2.0", "--m", "200",
                "--count", "3", "--sampler", "bs", "--seed", "3", "--out", str(gen)]) == 0
    detect = ["detect", "--in", str(gen), "--lm", "peaked:8,0.4", "--T", "49", "--seed", "5"]
    assert run(detect + ["--out", str(plain)]) == 0
    assert run(detect + ["--cost", "bs", "--out", str(forced)]) == 0
    assert plain.read_bytes() == forced.read_bytes()
    assert all(r["cost"] == "bs" and r["p_value"] == pytest.approx(1 / 50)
               for r in read_jsonl(plain))
    # a multinomial record has no key kind of its own
    assert run(["generate", "--lm", "peaked:8,0.4", "--lambda", "2.0", "--m", "60",
                "--sampler", "multinomial", "--seed", "3", "--out", str(gen)]) == 0
    capsys.readouterr()
    assert run(detect) == 1
    assert "'multinomial' record has no watermark key" in capsys.readouterr().err
    assert run(detect + ["--cost", "its"]) == 0


def test_detect_builds_each_records_code_once(tmp_path, monkeypatch):
    gen, det = tmp_path / "gen.jsonl", tmp_path / "det.jsonl"
    assert run(["generate", "--lm", "peaked:8,0.4", "--lambda", "2.0", "--m", "200",
                "--count", "3", "--sampler", "bs", "--seed", "7", "--out", str(gen)]) == 0
    calls = []

    def counted(lm, mode="fixed"):
        calls.append(mode)
        return codes_for_lm(lm, mode)

    monkeypatch.setattr(cli, "codes_for_lm", counted)
    assert run(["detect", "--in", str(gen), "--lm", "peaked:8,0.4", "--T", "19", "--seed", "4",
                "--out", str(det)]) == 0
    assert calls == ["fixed"]
    # the bytes of detection with a code built afresh for every record
    lm, rng, want = peaked_lm(8, 0.4), np.random.default_rng(4), []
    for rec in read_jsonl(gen):
        res = GenerationResult.from_record(rec)
        code = codes_for_lm(lm, res.coding)
        keyseq = key_sequence_for(res, lm.size, code=code, kind="bs")
        want.append(detect_pvalue(res.tokens, keyseq, DetectionConfig(cost="bs", T=19), rng,
                                  lm.size, code=code, boundary=res.boundary).to_json() + "\n")
    assert len(want) == 3 and det.read_text() == "".join(want)


def test_chained_attacks_keep_the_original_seed(tmp_path):
    gen, once, twice = (tmp_path / name for name in ("gen.jsonl", "a1.jsonl", "a2.jsonl"))
    assert run(["generate", "--lm", "peaked:8,0.4", "--lambda", "2.0", "--m", "120",
                "--count", "4", "--sampler", "its", "--seed", "6", "--out", str(gen)]) == 0
    for src, dst, seed in ((gen, once, "1"), (once, twice, "2")):
        assert run(["attack", "--in", str(src), "--attack", "substitute:0.3",
                    "--vocab-size", "8", "--seed", seed, "--out", str(dst)]) == 0
    originals = read_jsonl(gen)
    assert all(r["boundary"] > 0 for r in originals)
    for orig, attacked in zip(originals, read_jsonl(twice)):
        assert attacked["seed_tokens"] == orig["tokens"][: orig["boundary"]]
        assert attacked["tokens"] != orig["tokens"]
    assert list(read_jsonl(twice)[0]) == list(read_jsonl(once)[0])  # key order kept


@pytest.mark.parametrize("field, value", [
    ("tokens", None), ("boundary", None), ("sampler", None), ("lambda", None),
    ("salt", None), ("m", None), ("salt", 7), ("tokens", "1 2 3"), ("m", "60"),
    ("prf_id", "made-up-prf/v9"), ("prf_id", 7), ("top_p", "x"), ("temperature", [1]),
])
def test_malformed_record_exits_1_naming_field_and_line(tmp_path, capsys, field, value):
    gen = tmp_path / "gen.jsonl"
    assert run(["generate", "--lm", "uniform:4", "--lambda", "1.0", "--m", "60",
                "--count", "2", "--seed", "1", "--out", str(gen)]) == 0
    good, bad = read_jsonl(gen)
    if value is None:
        del bad[field]
    else:
        bad[field] = value
    gen.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n")
    capsys.readouterr()
    for cmd in (["detect", "--lm", "uniform:4", "--T", "9"],
                ["attack", "--attack", "substitute:0.1", "--vocab-size", "4"]):
        assert run(cmd + ["--in", str(gen), "--out", str(tmp_path / "out.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and repr(field) in err


def test_detect_rejects_an_unbounded_m(tmp_path, capsys):
    gen = tmp_path / "gen.jsonl"
    assert run(["generate", "--lm", "uniform:4", "--lambda", "1.0", "--m", "40",
                "--out", str(gen)]) == 0
    rec = read_jsonl(gen)[0]
    rec["m"] = 10**15
    gen.write_text(json.dumps(rec) + "\n")
    capsys.readouterr()
    assert run(["detect", "--in", str(gen), "--lm", "uniform:4", "--T", "3"]) == 1
    assert "record field 'm' = 1000000000000000" in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ([], "JSON object"),
    ({"format": "bigram-lm/1", "smoothing": 1.0, "counts": [[0, 1], [1, 0]],
      "bos_counts": [1, 0]}, "'vocab'"),
    ({"format": "bigram-lm/1", "vocab": ["a", "b"], "smoothing": "x",
      "counts": [[0, 1], [1, 0]], "bos_counts": [1, 0]}, "'smoothing'"),
    ({"format": "bigram-lm/1", "vocab": ["a", "b"], "smoothing": 1.0,
      "counts": [[0, 1e300], [1, 0]], "bos_counts": [1, 0]}, "'counts'"),
    ({"format": "bigram-lm/1", "vocab": ["a", "b"], "smoothing": 1.0,
      "counts": [[0, 0.5], [1, 0]], "bos_counts": [1, 0]}, "'counts'"),
    ({"format": "bigram-lm/1", "vocab": [0, 1], "smoothing": 1.0,
      "counts": [[0, 1], [1, 0]], "bos_counts": [1, 0]}, "'vocab'"),
    ({"format": "bigram-lm/1", "vocab": ["a", "b"], "smoothing": 1.0,
      "counts": [[0, 1], [1, 0]], "bos_counts": [2**64, 0]}, "'bos_counts'"),
    ({"format": "bigram-lm/1", "vocab": ["a", "b"], "smoothing": 10**400,
      "counts": [[0, 1], [1, 0]], "bos_counts": [1, 0]}, "'smoothing'"),
])
def test_malformed_model_file_exits_1(tmp_path, capsys, doc, field):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["generate", "--lm", str(path), "--m", "3",
                "--out", str(tmp_path / "g.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "Traceback" not in err


def test_builtin_model_size_is_bounded(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("entmark.lm.MAX_MODEL_BYTES", 16 * 64 * 64)
    out = str(tmp_path / "g.jsonl")
    assert run(["generate", "--lm", "uniform:64", "--m", "3", "--out", out]) == 0
    for name in ("uniform:65", "skewed:65", "peaked:65,0.5"):
        assert run(["generate", "--lm", name, "--m", "3", "--out", out]) == 1
        assert "65-token model is past the" in capsys.readouterr().err


def test_model_file_named_like_a_builtin(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.txt").write_text("a b a c b a\n")
    assert run(["train-lm", "--corpus", "corpus.txt", "--out", "uniform_model.json"]) == 0
    assert run(["generate", "--lm", "uniform_model.json", "--m", "5", "--out", "g.jsonl"]) == 0
    assert run(["generate", "--lm", "uniform:3", "--m", "5", "--out", "g.jsonl"]) == 0


def test_attack_needs_a_vocabulary(tmp_path, capsys):
    gen = tmp_path / "gen.jsonl"
    assert run(["generate", "--lm", "uniform:8", "--m", "30", "--out", str(gen)]) == 0
    assert run(["attack", "--in", str(gen), "--attack", "substitute:0.5"]) == 1
    assert "--vocab-size or --lm" in capsys.readouterr().err
    assert run(["attack", "--in", str(gen), "--attack", "substitute:0.5", "--lm", "uniform:8",
                "--out", str(tmp_path / "a.jsonl")]) == 0
