"""Command-line surface: train, generate, attack, detect, evaluate, and the
experiment runners.

Every subcommand reads and writes JSONL (one record per line) or JSON and
routes all randomness through explicit ``--seed`` flags, so any artifact can
be reproduced from its own fields. Exit codes: 0 success, 1 validation
error, 2 I/O error.
"""

import argparse
import json
import shlex
import sys

import numpy as np

from . import experiments, metrics
from .attacks import apply_attacks, parse_attack_spec
from .coding import CODING_MODES, codes_for_lm
from .detection import H_MODES, DetectionConfig, detect_pvalue, detect_seed_scan
from .generation import GenerationResult, generate, key_sequence_for
from .lm import load_lm, peaked_lm, save_lm, skewed_lm, train_from_text, uniform_lm
from .sampling import SAMPLER_KINDS


def _read_records(path):
    """(raw record, parsed GenerationResult) per JSONL line; a record that
    fails validation is an input error naming its line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                rec = json.loads(line)
                try:
                    records.append((rec, GenerationResult.from_record(rec)))
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}: {exc}") from None
    return records


def _write_lines(path, lines):
    if path == "-":
        for line in lines:
            print(line)
        return
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _with_config(argv):
    """argv with each ``key = value`` line of a --config file spliced in as
    ``--key`` and the value's shell words, after the leading subcommand words,
    so flags typed on the command line come later and win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a file name")
    rest = argv[:i] + argv[i + 2 :]
    flags = []
    with open(argv[i + 1], encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                flags += ["--" + key.strip().replace("_", "-"), *shlex.split(value)]
    lead = next((j for j, word in enumerate(rest) if word.startswith("-")), len(rest))
    return rest[:lead] + flags + rest[lead:]


def cmd_train_lm(args):
    with open(args.corpus, encoding="utf-8") as fh:
        text = fh.read()
    lm = train_from_text(text, args.tokenizer, args.smoothing)
    save_lm(lm, args.out)
    print(f"trained {lm.size}-token model -> {args.out}")
    return 0


def _builtin_lm(name):
    kind, _, arg = name.partition(":")
    if kind == "uniform":
        return uniform_lm(int(arg or 8))
    if kind == "skewed":
        return skewed_lm(int(arg or 4))
    if kind == "peaked":
        n, _, top = arg.partition(",")
        return peaked_lm(int(n or 8), float(top or 0.9))
    raise ValueError(f"unknown builtin model {name!r}")


def _load_model(args):
    if args.lm.partition(":")[0] in ("uniform", "skewed", "peaked"):
        return _builtin_lm(args.lm)
    return load_lm(args.lm)


def cmd_generate(args):
    lm = _load_model(args)
    if args.prompt_ids:
        prompt = [int(t) for t in args.prompt_ids.split(",") if t != ""]
    elif args.prompt:
        prompt = lm.vocab.encode(args.prompt.split())
    else:
        prompt = []
    code = codes_for_lm(lm, args.coding) if args.sampler == "bs" else None
    rng = np.random.default_rng(args.seed)
    salt = bytes.fromhex(args.salt) if args.salt else rng.bytes(16)
    lines = []
    for i in range(args.count):
        res = generate(
            lm, prompt, args.entropy_threshold, args.m, args.sampler, salt, rng,
            code=code, top_p=args.top_p, temperature=args.temperature,
            rng_seed=args.seed,
        )
        lines.append(res.to_json())
    _write_lines(args.out, lines)
    return 0


def cmd_attack(args):
    specs = []
    for text in args.attack:
        specs.extend(parse_attack_spec(text))
    if args.vocab_size is None and not args.lm:
        raise ValueError("attack needs --vocab-size or --lm")
    records = _read_records(args.infile)
    rng = np.random.default_rng(args.seed)
    n_vocab = args.vocab_size if args.vocab_size is not None else _load_model(args).size
    lines = []
    for rec, res in records:
        # same key order as the input; the seed is the original one even
        # when the record was attacked before
        out = dict(rec, tokens=apply_attacks(res.tokens, specs, n_vocab, rng),
                   attack=args.attack, attack_seed=args.seed)
        if res.boundary is not None:
            out["seed_tokens"] = list(res.seed_block().tokens)
        lines.append(json.dumps(out))
    _write_lines(args.out, lines)
    return 0


def cmd_detect(args):
    lm = _load_model(args)
    records = _read_records(args.infile)
    rng = np.random.default_rng(args.seed)
    lines = []
    for _, res in records:
        # the key kind is the record's sampler unless --cost overrides it
        cost = args.cost or res.sampler
        if cost not in ("its", "bs"):
            raise ValueError(f"{args.infile}: a {cost!r} record has no watermark key; "
                             "pass --cost its or --cost bs")
        config = DetectionConfig(cost=cost, k=args.k, T=args.T,
                                 h_mode=args.h_mode, s_max=args.s_max)
        code = codes_for_lm(lm, res.coding) if cost == "bs" else None
        if args.mode == "scan":
            report = detect_seed_scan(res.tokens, config, res.salt, lm.size, rng, code=code)
        else:
            keyseq = key_sequence_for(res, lm.size, code=code, kind=cost)
            report = detect_pvalue(res.tokens, keyseq, config, rng, lm.size,
                                   code=code, boundary=res.boundary)
        lines.append(report.to_json())
    _write_lines(args.out, lines)
    return 0


def cmd_eval_roc(args):
    pos = np.loadtxt(args.pos, ndmin=1)
    neg = np.loadtxt(args.neg, ndmin=1)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("score files must be non-empty")
    summary = metrics.roc_auc(pos, neg)
    _write_lines(args.out, [summary.to_json()])
    return 0


def _print_record(record, out):
    _write_lines(out, [record.to_json()])
    status = {True: "PASS", False: "FAIL", None: "done"}[record.passed]
    print(f"{record.name}: {status} {record.metrics}", file=sys.stderr)
    return 0 if record.passed in (True, None) else 1


def cmd_exp(args):
    if args.experiment == "collision-bound":
        print(experiments.collision_bound(args.cells, args.p))
        return 0
    if args.experiment == "seed-collisions":
        lm = _load_model(args)
        rec = experiments.run_seed_collisions(lm, args.entropy_threshold, args.trials,
                                              args.m, args.seed)
    elif args.experiment == "indistinguishability":
        lm = _load_model(args)
        rec = experiments.run_indistinguishability(lm, args.entropy_threshold, args.m,
                                                   args.samples, seed=args.seed)
    elif args.experiment == "covariance-gap":
        rec = experiments.run_covariance_gap(args.vocab_size, args.m, args.samples, args.seed)
    elif args.experiment == "hoeffding-bound":
        rec = experiments.run_hoeffding_bound(uniform_lm(args.vocab_size), args.k_values,
                                              args.samples, args.seed)
    elif args.experiment == "pvalue-validity":
        rec = experiments.run_pvalue_validity(args.vocab_size, args.m, args.trials,
                                              args.T, seed=args.seed)
    elif args.experiment == "detect-curve":
        lm = _load_model(args)
        rec = experiments.run_detect_curve(lm, args.entropy_threshold, args.m_values,
                                           n_pos=args.samples, n_neg=args.samples,
                                           seed=args.seed)
    elif args.experiment == "attack-auc":
        lm = _load_model(args)
        specs = []
        for text in args.attack or ["substitute:0.1"]:
            specs.extend(parse_attack_spec(text))
        rec = experiments.run_attack_auc(lm, args.entropy_threshold, args.m,
                                         attack_specs=specs, n_pos=args.samples,
                                         n_neg=args.samples, seed=args.seed)
    elif args.experiment == "error-lower-bound":
        lm = _load_model(args)
        rec = experiments.run_error_lower_bound(lm, args.c, args.m, args.samples,
                                                seed=args.seed,
                                                lam=args.entropy_threshold)
    else:
        raise ValueError(f"unknown experiment {args.experiment!r}")
    return _print_record(rec, args.out)


def build_parser():
    parser = argparse.ArgumentParser(prog="entmark",
                                     description="entropy-gated text watermarking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-lm", help="train the bigram model from a text file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--tokenizer", choices=("whitespace", "char"), default="whitespace")
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("generate", help="generate watermarked continuations")
    p.add_argument("--lm", required=True,
                   help="model file, or builtin uniform:N / skewed:N / peaked:N,top")
    p.add_argument("--prompt", default="")
    p.add_argument("--prompt-ids", default="")
    p.add_argument("--lambda", dest="entropy_threshold", type=float, default=2.0,
                   help="cumulative watermark-entropy gate (inf disables)")
    p.add_argument("--m", type=int, default=100, help="generation budget in tokens")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--sampler", choices=SAMPLER_KINDS, default="its")
    p.add_argument("--coding", choices=CODING_MODES, default="fixed")
    p.add_argument("--salt", default="", help="hex salt; fresh random if omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top-p", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("attack", help="corrupt generated token streams")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--attack", action="append", required=True,
                   help="substitute:R | insert:R | delete:R | crop:A:B | paraphrase-proxy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lm", default="")
    p.add_argument("--vocab-size", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("detect", help="permutation-test detection on records")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--mode", choices=("key", "scan"), default="key")
    p.add_argument("--cost", choices=("its", "bs"), default=None,
                   help="key kind (default: each record's sampler)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--T", type=int, default=99)
    p.add_argument("--h-mode", choices=H_MODES, default="soft")
    p.add_argument("--s-max", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval-roc", help="ROC/AUC from score files (one per line)")
    p.add_argument("--pos", required=True)
    p.add_argument("--neg", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_eval_roc)

    p = sub.add_parser("exp", help="run a statistical validation experiment")
    p.add_argument("experiment", choices=(
        "collision-bound", "seed-collisions", "indistinguishability",
        "covariance-gap", "hoeffding-bound", "pvalue-validity",
        "detect-curve", "attack-auc", "error-lower-bound"))
    p.add_argument("--lm", default="uniform:8")
    p.add_argument("--lambda", dest="entropy_threshold", type=float, default=2.0)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--m-values", type=int, nargs="+", default=(50, 100, 200, 400))
    p.add_argument("--k-values", type=int, nargs="+", default=(20, 50, 100))
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--T", type=int, default=99)
    p.add_argument("--vocab-size", type=int, default=8)
    p.add_argument("--cells", type=float, default=365.0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--c", type=float, default=0.1)
    p.add_argument("--attack", action="append", help="default: substitute:0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_exp)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        return args.func(args)
    except SystemExit as exc:  # argparse usage problems are validation errors
        return 0 if not exc.code else 1
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input size past what can be allocated
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
