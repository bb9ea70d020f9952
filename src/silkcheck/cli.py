"""Command line front end.

Exit codes: 0 when the check accepts (or the script is a proof), 1 when it
rejects or an input is not a proof, 2 for usage, parse, or file errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import rewrite as rw
from .kernel import MODE_LKE, check_proof
from .parser import ParseError, _parsed, load_file, parse_proof, parse_schema, parse_script
from .printer import print_proof_tree, print_schema, print_script, report_dict, report_text, stats_table, where
from .schema import EVALUATION_ERRORS, UnrollMemo, check_schema, evaluate, evaluate_and_check
from .silk import NotAProof, SilkError, check_script
from .translate import interpret, silk_to_schema, to_ppsnf


def _default_fuel() -> int:
    """SILK_FUEL when it is a non-negative integer, else DEFAULT_FUEL."""
    try:
        return _natural(os.environ.get("SILK_FUEL", ""))
    except argparse.ArgumentTypeError:
        return rw.DEFAULT_FUEL


def _emit_json(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _report_exit(report, as_json: bool) -> int:
    if as_json:
        _emit_json(report_dict(report))
    else:
        print(report_text(report))
        if report.counts:
            print("inferences:", ", ".join(f"{k}={v}" for k, v in sorted(report.counts.items())))
    return 0 if report.accepted else 1


def _cmd_check_lk(args) -> int:
    proof, theory, _ = load_file(args.file, parse_proof, args.theory, args.fuel)
    env = {}
    allowed = frozenset()
    if args.env:
        try:
            schema, _ = _parsed(parse_schema, Path(args.env).read_text(encoding="utf-8"))
        except ParseError as exc:
            raise ParseError(f"in --env file {args.env}: {exc}") from None
        env = schema.link_env()
        allowed = frozenset({"n"})
    report = check_proof(proof, args.mode, theory, env, allowed, lenient_erule=args.lenient_erule)
    return _report_exit(report, args.json)


def _cmd_check_schema(args) -> int:
    schema, theory, _ = load_file(args.file, parse_schema, args.theory, args.fuel)
    report = check_schema(schema, theory)
    return _report_exit(report, args.json)


def _cmd_check_silk(args) -> int:
    script, _, _ = load_file(args.file, parse_script, args.theory, args.fuel)
    state, verdict, report = check_script(script)
    if args.json:
        payload = report_dict(report)
        payload["verdict"] = verdict
        payload["collection"] = str(state)
        _emit_json(payload)
    else:
        print(f"verdict: {verdict}")
        print(f"collection: {state}")
        for f in report.failures:
            print(f"  step {where(f)}: [{f.rule}] {f.message}")
    return 0 if verdict == "proof" else 1


def _cmd_unroll(args) -> int:
    schema, theory, _ = load_file(args.file, parse_schema, args.theory, args.fuel)
    memo = UnrollMemo()
    trace = evaluate(schema, args.alpha, theory, memo=memo)
    proof = trace.proof if args.lk else trace.expanded
    counts = trace.inferences()[1 if args.lk else 0]
    if args.json:
        payload = {
            "format_version": 1,
            "alpha": args.alpha,
            "counts": counts,
            "expansions": trace.expansion_count,
            "end_sequent": str(proof.conclusion),
        }
        if not args.quiet:
            payload["proof"] = print_proof_tree(proof)
        _emit_json(payload)
    else:
        if not args.quiet:
            print(print_proof_tree(proof))
            print()
        print("inferences:", ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    if args.check:
        report = evaluate_and_check(schema, args.alpha, theory, memo=memo)
        print(f"check: {report_text(report)}")
        return 0 if report.accepted else 1
    return 0


def _written_directive(args, directive: str | None) -> str | None:
    """The theory directive the output must carry.  On stdout it is the
    input's own; in an output file it names the theory the input was read
    under, --theory (relative to the working directory) or else the input's
    directive (relative to the input), rebased to the output's directory."""
    if not args.out:
        return directive
    base = Path(args.file).parent
    if args.theory:
        base, directive = Path(), args.theory
    if not directive or os.path.isabs(directive):
        return directive
    return os.path.relpath(base / directive, Path(args.out).parent)


def _write(args, text: str, doc: dict) -> int:
    """``text`` written to the file ``-o`` names, or ``doc`` as JSON under
    ``--json``, or else ``text`` to stdout."""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    elif args.json:
        _emit_json(doc)
    else:
        print(text, end="")
    return 0


def _cmd_ppsnf(args) -> int:
    script, _, directive = load_file(args.file, parse_script, args.theory, args.fuel)
    text = print_script(to_ppsnf(script), _written_directive(args, directive))
    return _write(args, text, {"format_version": 1, "steps": [line for line in text.splitlines() if line]})


def _cmd_translate(args) -> int:
    script, _, directive = load_file(args.file, parse_script, args.theory, args.fuel)
    schema = silk_to_schema(script)
    text = print_schema(schema, _written_directive(args, directive))
    doc = {
        "format_version": 1,
        "components": [c.name for c in schema.components],
        "schema": text,
    }
    return _write(args, text, doc)


def _cmd_interpret(args) -> int:
    script, _, _ = load_file(args.file, parse_script, args.theory, args.fuel)
    state, verdict, report = check_script(script)
    if verdict != "proof":
        print(f"not a proof (verdict: {verdict})", file=sys.stderr)
        for f in report.failures:
            print(f"  step {where(f)}: {f.message}", file=sys.stderr)
        return 1
    formula = interpret(state)
    if args.json:
        _emit_json({"format_version": 1, "formula": str(formula)})
    else:
        print(formula)
    return 0


def _natural(text: str) -> int:
    """An instance or a fuel: a non-negative decimal integer, written in
    ASCII digits alone (no sign, blank, underscore or other script)."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _alpha_range(spec: str) -> range:
    """A..B: both ends instances, with A <= B."""
    lo, _, hi = spec.partition("..")
    try:
        lo, hi = _natural(lo), _natural(hi)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"{spec!r} is not a range A..B of non-negative integers") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"{spec!r} is an empty range: {hi} is below {lo}")
    return range(lo, hi + 1)


def _cmd_stats(args) -> int:
    """Inference counts at each numeral of the range, all unrolled on one
    memo, and each evaluated once.  The top numeral goes first, so when the
    lead links to itself every smaller numeral is a memo hit.  If the top
    fails, the others still run in ascending order, and the first of them
    to fail, else the top, gives the error: always the smallest failing
    numeral's.  Counting goes in ascending order, so each root's tally stops
    at the root counted before it."""
    if args.file.endswith(".slk"):
        script, theory, _ = load_file(args.file, parse_script, args.theory, args.fuel)
        schema = silk_to_schema(script)
    else:
        schema, theory, _ = load_file(args.file, parse_schema, args.theory, args.fuel)
    memo, alphas, failure = UnrollMemo(), args.alpha_range, None
    try:
        traces = {alphas[-1]: evaluate(schema, alphas[-1], theory, memo=memo)}
    except EVALUATION_ERRORS as exc:
        # Without its traceback the error holds none of the failed call's frames.
        traces, failure = {}, exc.with_traceback(None)
    for alpha in alphas[:-1]:
        traces[alpha] = evaluate(schema, alpha, theory, memo=memo)
    if failure is not None:
        raise failure
    rows = [(alpha, *traces[alpha].inferences()) for alpha in alphas]
    if args.json:
        _emit_json(
            {
                "format_version": 1,
                "rows": [
                    {"alpha": a, "expanded": ec, "normal": lk, "total": sum(ec.values())}
                    for a, ec, lk in rows
                ],
            }
        )
    else:
        print(stats_table(rows))
    return 0


# The arguments every command takes, before its own.  --fuel has no
# default here: _run reads it from SILK_FUEL on each call.
_SHARED = [
    (("file",), {"help": "input file"}),
    (("--theory",), {"help": "theory file overriding the file's directive"}),
    (("--fuel",), {"type": _natural, "help": "bound on each formula's rewrite span and on link expansions"}),
    (("--json",), {"action": "store_true", "help": "machine readable report"}),
]

# name: (help, handler, options after the shared ones), in the order of the
# top-level help.
_COMMANDS = {
    "check-lk": (
        "check a proof file in LK, LKE, or LKS mode",
        _cmd_check_lk,
        [
            (("--mode",), {"choices": ["lk", "lke", "lks"], "default": MODE_LKE}),
            (("--env",), {"help": "schema file supplying link targets for LKS mode"}),
            (("--lenient-erule",), {"action": "store_true", "help": "accept whole-sequent rewrite witnesses"}),
        ],
    ),
    "check-schema": ("check schema well-formedness", _cmd_check_schema, []),
    "check-silk": ("replay a script and report the verdict", _cmd_check_silk, []),
    "unroll": (
        "instantiate a schema at a numeral",
        _cmd_unroll,
        [
            (("--alpha",), {"type": _natural, "required": True}),
            (("--lk",), {"action": "store_true", "help": "print the rewritten normal form instead"}),
            (("--check",), {"action": "store_true", "help": "also run the full soundness check"}),
            (("--quiet",), {"action": "store_true", "help": "suppress the proof tree (large instances)"}),
        ],
    ),
    "ppsnf": (
        "rewrite a proof script into construction-order normal form",
        _cmd_ppsnf,
        [(("-o", "--out"), {"help": "write the reordered script here"})],
    ),
    "translate": (
        "extract the proof schema from a script",
        _cmd_translate,
        [(("-o", "--out"), {"help": "write the schema file here"})],
    ),
    "interpret": ("emit the induction statement a proof establishes", _cmd_interpret, []),
    "stats": (
        "inference counts over a range of instances",
        _cmd_stats,
        [(("--alpha-range",), {"type": _alpha_range, "required": True, "metavar": "A..B"})],
    ),
}


def _plain(argv: list) -> argparse.Namespace | None:
    """The namespace ``_parser`` builds from a plain line, less its
    ``command`` entry, read off the option table; None for any other
    ``argv``, which only argparse reads and reports on.  A plain line names
    a command, then gives one file and that command's options, each
    spelled in full and given at most once, every required one among them;
    an option's value is the next word, does not start with "-", and passes
    the option's type and choices, and the file does not start with "-"
    either."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    table, args, needed, seen = {}, {}, set(), set()
    for flags, kwargs in _SHARED + options:
        dest = next((f for f in flags if f.startswith("--")), flags[0]).lstrip("-").replace("-", "_")
        table.update(dict.fromkeys(flags, (dest, kwargs)))
        args[dest] = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        if kwargs.get("required") or not flags[0].startswith("-"):
            needed.add(dest)
    args["func"] = handler
    words = iter(argv[1:])
    for word in words:
        # A word that does not start with "-" is the file.
        dest, kwargs = table.get(word if word.startswith("-") else "file", (None, None))
        if dest is None or dest in seen:
            return None
        seen.add(dest)
        if kwargs.get("action") == "store_true":
            args[dest] = True
            continue
        if dest != "file":
            word = next(words, "-")  # a missing value is refused as "-" is
        if word.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(word)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        args[dest] = value
    return argparse.Namespace(**args) if needed <= seen else None


def _parser() -> argparse.ArgumentParser:
    """The top-level parser, with a subparser for every command.  It reads
    every line ``_plain`` refuses, and writes all usage, help and error
    text."""
    top = argparse.ArgumentParser(
        prog="silkcheck",
        description="Check, unroll, normalize, and translate schematic sequent proofs.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (text, handler, options) in _COMMANDS.items():
        parser = sub.add_parser(name, help=text)
        for flags, kwargs in _SHARED + options:
            parser.add_argument(*flags, **kwargs)
        parser.set_defaults(func=handler)
    return top


# The cyclic collector's thresholds for a run.  Unrolling builds many
# long-lived nodes and proofs, which the default first threshold, 700, has
# the collector rescan over and over: about 15 % of an unroll --check of
# schema_exp at alpha 12 to 14 (Python 3.11, 2 cores).
GC_THRESHOLD = (50_000, 50, 1_000)


def main(argv=None) -> int:
    """Run the command ``argv`` names and return its exit code, under the
    collector's ``GC_THRESHOLD``; the caller's thresholds are restored on
    every way out, as a caller may run ``main`` many times in one process."""
    thresholds = gc.get_threshold()
    gc.set_threshold(*GC_THRESHOLD)
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    finally:
        gc.set_threshold(*thresholds)


def _run(argv: list) -> int:
    """Run the command ``argv`` names.  A plain line is read off the option
    table by ``_plain`` and builds no parser; any other line is read by the
    top-level parser, so usage, help and error text only ever come from
    argparse.  A line that gives no --fuel gets SILK_FUEL's, read again on
    each call."""
    try:
        args = _plain(argv) or _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.fuel is None:
        args.fuel = _default_fuel()
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except NotAProof as exc:
        print(f"not a proof: {exc}", file=sys.stderr)
        return 1
    except (SilkError, *EVALUATION_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
