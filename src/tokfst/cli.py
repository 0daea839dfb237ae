"""Command-line surface.

Subcommands: promote, tokenize, enumerate, check, mask, dot. Exit codes:
0 success, 1 validation or property failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import TokfstError
from .formats import export_dot, load_automaton, load_merges, load_vocab, save_automaton
from .fst import enumerate_language
from .guided import allowed_tokens, constraint_advance, constraint_begin
from .pattern import compile_pattern
from .promote import (
    check_promotion,
    promote_agnostic,
    promote_bpe,
    promote_maxmatch,
)
from .symbols import EPSILON
from .tokenizers import maxmatch_tokenize


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokfst",
        description="Promote character-level patterns to subword-token automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("promote", help="compile a pattern and promote it to token level")
    p.add_argument("--pattern", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--merges")
    p.add_argument("--mode", required=True, choices=("agnostic", "maxmatch", "bpe"))
    p.add_argument("--out", required=True)
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.add_argument("--stats", action="store_true", help="print per-stage statistics")

    p = sub.add_parser("tokenize", help="run a tokenizer on a string")
    p.add_argument("--mode", required=True, choices=("maxmatch", "bpe", "bpe-iterative"))
    p.add_argument("--vocab", required=True)
    p.add_argument("--merges")
    p.add_argument("--input", required=True)

    p = sub.add_parser("enumerate", help="list accepted token sequences up to a length")
    p.add_argument("--automaton", required=True)
    p.add_argument("--max-len", type=int, required=True)

    p = sub.add_parser("check", help="compare a promotion against the tokenizer oracle")
    p.add_argument("--pattern", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--merges")
    p.add_argument("--mode", required=True, choices=("agnostic", "maxmatch", "bpe"))
    p.add_argument("--max-len", type=int, required=True)

    p = sub.add_parser("mask", help="print the tokens allowed after a prefix")
    p.add_argument("--automaton", required=True)
    p.add_argument("--prefix", default="", help="space-separated token strings")

    p = sub.add_parser("dot", help="render an automaton file as DOT")
    p.add_argument("--automaton", required=True)
    p.add_argument("--out", help="write here instead of stdout")

    return parser


def _tokenizer_for(args, parser, vocab):
    if args.merges is None:
        parser.error(f"--merges is required with --mode {args.mode}")
    return load_merges(args.merges, vocab)


def _cmd_promote(args, parser) -> int:
    vocab = load_vocab(args.vocab)
    pattern = compile_pattern(args.pattern, vocab.table)
    if args.mode == "agnostic":
        result = promote_agnostic(pattern, vocab)
    elif args.mode == "maxmatch":
        result = promote_maxmatch(pattern, vocab)
    else:
        result = promote_bpe(pattern, _tokenizer_for(args, parser, vocab))
    save_automaton(result.dfa, args.out)
    if args.dot:
        export_dot(result.dfa, args.dot)
    if args.stats:
        for st in result.stats:
            det = "deterministic" if st.deterministic_before_minimize else "determinized"
            print(
                f"{st.label}: {st.states} states, "
                f"{st.transitions} transitions, {det}, {st.seconds:.4f}s"
            )
    return 0


def _cmd_tokenize(args, parser) -> int:
    vocab = load_vocab(args.vocab)
    if args.mode == "maxmatch":
        ids = maxmatch_tokenize(args.input, vocab)
    else:
        tokenizer = _tokenizer_for(args, parser, vocab)
        if args.mode == "bpe":
            ids = tokenizer.tokenize(args.input)
        else:
            ids = tokenizer.tokenize_incremental(args.input)
    print(" ".join(vocab.table.token(i) for i in ids))
    return 0


def _cmd_enumerate(args) -> int:
    d = load_automaton(args.automaton)
    table = d.table
    seqs = enumerate_language(d, args.max_len)
    for seq in sorted(seqs, key=lambda s: (len(s), [table.token(i) for i in s])):
        print(" ".join(table.token(i) for i in seq) if seq else table.display(EPSILON))
    return 0


def _cmd_check(args, parser) -> int:
    vocab = load_vocab(args.vocab)
    pattern = compile_pattern(args.pattern, vocab.table)
    tokenizer = _tokenizer_for(args, parser, vocab) if args.mode == "bpe" else None
    verdict = check_promotion(pattern, vocab, args.mode, args.max_len, tokenizer)
    if verdict is None:
        print("ok")
        return 0
    kind, seq = verdict
    print(f"{kind}: {' '.join(vocab.table.token(i) for i in seq)}")
    return 1


def _cmd_mask(args) -> int:
    d = load_automaton(args.automaton)
    state = constraint_begin(d)
    for token in args.prefix.split():
        state = constraint_advance(state, d.table.id(token))
    for token in sorted(d.table.token(i) for i in allowed_tokens(state)):
        print(token)
    return 0


def _cmd_dot(args) -> int:
    d = load_automaton(args.automaton)
    text = export_dot(d, args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_len", 0) < 0:
            parser.error("argument --max-len: must not be negative")
        if args.command == "promote":
            return _cmd_promote(args, parser)
        if args.command == "tokenize":
            return _cmd_tokenize(args, parser)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "check":
            return _cmd_check(args, parser)
        if args.command == "mask":
            return _cmd_mask(args)
        return _cmd_dot(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (TokfstError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
