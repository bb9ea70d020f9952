"""Command line front end.

Exit codes: 0 when the check accepts (or the script is a proof), 1 when it
rejects or an input is not a proof, 2 for usage, parse, or file errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import rewrite as rw
from .kernel import MODE_LKE, check_proof, count_inferences
from .parser import (
    ParseError,
    _workspace_roots,
    check_arities,
    load_theory,
    parse_proof,
    parse_schema,
    parse_script,
)
from .printer import print_proof_tree, print_schema, print_script, stats_table
from .schema import MatchFailure, UnrollMemo, check_schema, evaluate, evaluate_and_check
from .silk import NotAProof, SiLKScript, SilkError, check_script
from .translate import interpret, silk_to_schema, to_ppsnf


def _default_fuel() -> int:
    """SILK_FUEL when it is a non-negative integer, else DEFAULT_FUEL."""
    try:
        fuel = int(os.environ.get("SILK_FUEL", rw.DEFAULT_FUEL))
    except ValueError:
        return rw.DEFAULT_FUEL
    return fuel if fuel >= 0 else rw.DEFAULT_FUEL


def _emit_json(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_with_theory(args, parse_fn):
    text = Path(args.file).read_text(encoding="utf-8")
    value, theory_path = parse_fn(text)
    if args.theory:
        theory = load_theory(args.theory, args.fuel)
    elif theory_path:
        theory = load_theory(Path(args.file).parent / theory_path, args.fuel)
    else:
        theory = rw.EquationalTheory((), args.fuel)
    issues = check_arities(*_workspace_roots(value, theory))
    if issues:
        raise ParseError("; ".join(issues))
    return value, theory, theory_path


def _report_exit(report, extra: dict | None = None, as_json: bool = False) -> int:
    if as_json:
        payload = report.to_dict()
        payload.update(extra or {})
        _emit_json(payload)
    else:
        print(report.status)
        for f in report.failures:
            print(f"  {f}")
        if report.counts:
            print("inferences:", ", ".join(f"{k}={v}" for k, v in sorted(report.counts.items())))
        for key, value in (extra or {}).items():
            print(f"{key}: {value}")
    return 0 if report.accepted else 1


def _cmd_check_lk(args) -> int:
    proof, theory, _ = _load_with_theory(args, parse_proof)
    issues = rw.validate_theory(theory)
    if not issues.ok:
        for issue in issues.issues:
            print(f"theory: {issue}", file=sys.stderr)
        return 2
    env = {}
    allowed = frozenset()
    if args.env:
        schema, _ = parse_schema(Path(args.env).read_text(encoding="utf-8"))
        env = schema.link_env()
        allowed = frozenset({"n"})
    report = check_proof(
        proof,
        args.mode,
        theory,
        env,
        allowed,
        lenient_erule=args.lenient_erule,
        fuel=args.fuel,
    )
    return _report_exit(report, as_json=args.json)


def _cmd_check_schema(args) -> int:
    schema, theory, _ = _load_with_theory(args, parse_schema)
    report = check_schema(schema, theory, fuel=args.fuel)
    return _report_exit(report, as_json=args.json)


def _cmd_check_silk(args) -> int:
    script, theory, _ = _load_with_theory(args, parse_script)
    script = SiLKScript(theory, script.steps)
    state, verdict, report = check_script(script, fuel=args.fuel)
    if args.json:
        payload = report.to_dict()
        payload["verdict"] = verdict
        payload["collection"] = str(state)
        _emit_json(payload)
    else:
        print(f"verdict: {verdict}")
        print(f"collection: {state}")
        for f in report.failures:
            print(f"  step {f.where()}: [{f.rule}] {f.message}")
    return 0 if verdict == "proof" else 1


def _cmd_unroll(args) -> int:
    schema, theory, _ = _load_with_theory(args, parse_schema)
    trace = evaluate(schema, args.alpha, theory, fuel=args.fuel)
    proof = trace.proof if args.lk else trace.expanded
    counts = count_inferences(proof)
    if args.json:
        payload = {
            "format_version": 1,
            "alpha": args.alpha,
            "counts": counts,
            "expansions": len(trace.expansions),
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
        report = evaluate_and_check(schema, args.alpha, theory, fuel=args.fuel)
        print(f"check: {report.status}")
        return 0 if report.accepted else 1
    return 0


def _cmd_ppsnf(args) -> int:
    script, theory, theory_path = _load_with_theory(args, parse_script)
    script = SiLKScript(theory, script.steps)
    normal = to_ppsnf(script, fuel=args.fuel)
    text = print_script(normal, theory_path)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    elif args.json:
        _emit_json({"format_version": 1, "steps": [line for line in text.splitlines() if line]})
    else:
        print(text, end="")
    return 0


def _cmd_translate(args) -> int:
    script, theory, theory_path = _load_with_theory(args, parse_script)
    script = SiLKScript(theory, script.steps)
    schema = silk_to_schema(script, fuel=args.fuel)
    text = print_schema(schema, theory_path)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    elif args.json:
        _emit_json(
            {
                "format_version": 1,
                "components": [c.name for c in schema.components],
                "schema": text,
            }
        )
    else:
        print(text, end="")
    return 0


def _cmd_interpret(args) -> int:
    script, theory, _ = _load_with_theory(args, parse_script)
    script = SiLKScript(theory, script.steps)
    state, verdict, report = check_script(script, fuel=args.fuel)
    if verdict != "proof":
        print(f"not a proof (verdict: {verdict})", file=sys.stderr)
        for f in report.failures:
            print(f"  step {f.where()}: {f.message}", file=sys.stderr)
        return 1
    formula = interpret(state)
    if args.json:
        _emit_json({"format_version": 1, "formula": str(formula)})
    else:
        print(formula)
    return 0


def _natural(text: str) -> int:
    """An instance or a fuel: a non-negative decimal integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _alpha_range(spec: str) -> range:
    """A..B: both ends instances, with A <= B."""
    lo, _, hi = spec.partition("..")
    lo, hi = _natural(lo), _natural(hi)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"{spec!r} is an empty range: {hi} is below {lo}")
    return range(lo, hi + 1)


def _cmd_stats(args) -> int:
    if args.file.endswith(".slk"):
        script, theory, _ = _load_with_theory(args, parse_script)
        schema = silk_to_schema(SiLKScript(theory, script.steps), fuel=args.fuel)
    else:
        schema, theory, _ = _load_with_theory(args, parse_schema)
    rows = []
    memo = UnrollMemo()
    for alpha in args.alpha_range:
        trace = evaluate(schema, alpha, theory, fuel=args.fuel, memo=memo)
        rows.append((alpha, count_inferences(trace.expanded), count_inferences(trace.proof)))
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


def _add_common(sub, theory=True):
    sub.add_argument("file", help="input file")
    if theory:
        sub.add_argument("--theory", help="theory file overriding the file's directive")
    sub.add_argument("--fuel", type=_natural, default=_default_fuel(), help="rewrite step budget")
    sub.add_argument("--json", action="store_true", help="machine readable report")


def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="silkcheck",
        description="Check, unroll, normalize, and translate schematic sequent proofs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-lk", help="check a proof file in LK, LKE, or LKS mode")
    _add_common(p)
    p.add_argument("--mode", choices=["lk", "lke", "lks"], default=MODE_LKE)
    p.add_argument("--env", help="schema file supplying link targets for LKS mode")
    p.add_argument("--lenient-erule", action="store_true", help="accept whole-sequent rewrite witnesses")
    p.set_defaults(func=_cmd_check_lk)

    p = sub.add_parser("check-schema", help="check schema well-formedness")
    _add_common(p)
    p.set_defaults(func=_cmd_check_schema)

    p = sub.add_parser("check-silk", help="replay a script and report the verdict")
    _add_common(p)
    p.set_defaults(func=_cmd_check_silk)

    p = sub.add_parser("unroll", help="instantiate a schema at a numeral")
    _add_common(p)
    p.add_argument("--alpha", type=_natural, required=True)
    p.add_argument("--lk", action="store_true", help="print the rewritten normal form instead")
    p.add_argument("--check", action="store_true", help="also run the full soundness check")
    p.add_argument("--quiet", action="store_true", help="suppress the proof tree (large instances)")
    p.set_defaults(func=_cmd_unroll)

    p = sub.add_parser("ppsnf", help="rewrite a proof script into construction-order normal form")
    _add_common(p)
    p.add_argument("-o", "--out", help="write the reordered script here")
    p.set_defaults(func=_cmd_ppsnf)

    p = sub.add_parser("translate", help="extract the proof schema from a script")
    _add_common(p)
    p.add_argument("-o", "--out", help="write the schema file here")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("interpret", help="emit the induction statement a proof establishes")
    _add_common(p)
    p.set_defaults(func=_cmd_interpret)

    p = sub.add_parser("stats", help="inference counts over a range of instances")
    _add_common(p)
    p.add_argument("--alpha-range", type=_alpha_range, required=True, metavar="A..B")
    p.set_defaults(func=_cmd_stats)

    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
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
    except (SilkError, MatchFailure, rw.FuelExhausted, rw.StuckTerm) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
