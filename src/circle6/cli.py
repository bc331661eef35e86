"""Command-line front end.

Subcommands: validate, localize, classify, generate, graph, sum,
admissible, framing, verify-gluing, sweep. Reports are JSON on stdout
(redirected to --out when given) with sorted keys and exact rationals as
"p/q" strings, so output is byte-stable for identical inputs and seeds.
Exit codes: 0 success, 1 validation/assertion failure, 2 usage error.
When --out cannot be written, the error payload goes to stdout instead.
Dataset files are read unvalidated: `validate` lists the violations, and
the other subcommands leave them to their operation's InvalidData gate.

`run` parses with one parser per process, built by `build_parser()` the
first time `run` needs it (not at import) and reused by every later call;
each call gets a fresh namespace, so nothing carries over between calls.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from itertools import product

from . import core
from .classifier import (CaseTag, JangCase, classify, gen_family, jang_case,
                         param_names)
from .core import format_rational, parse_rational
from .errors import BadArgument, ParseError, ToolkitError
from .localization import _localize, chern_report
from .multigraph import DEFAULT_MATCHING_CAP, build_multigraphs, connectivity_verdict
from .surgery import (DimensionPair, equivariant_normal_framing_class,
                      kustarev_admissible, kustarev_sum, psi_flip,
                      verify_framing_reversal_identity)

_RANGE_RE = re.compile(r"^(-?\d+)(?:\.\.(-?\d+))?$")

# ChernReport fields a sweep may assert on, all exact
_SWEEP_INVARIANTS = ("c1_cubed", "todd", "c1c2", "euler")

# every family parameter name, first seen first: the sweep's range flags
_PARAM_NAMES = tuple(dict.fromkeys(name for tag in CaseTag for name in param_names(tag)))


def _parse_range(text: str) -> range:
    m = _RANGE_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected an integer or lo..hi range, got {text!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) is not None else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_assertion(text: str) -> tuple[str, Fraction]:
    name, sep, value = text.partition("=")
    if not sep or name.strip() not in _SWEEP_INVARIANTS:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE with NAME in {sorted(_SWEEP_INVARIANTS)}, got {text!r}")
    try:
        return name.strip(), parse_rational(value)
    except ParseError as exc:
        # float literals land here on purpose: assertions are exact
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_case(text: str) -> CaseTag:
    try:
        return jang_case(text).tag
    except ToolkitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write the JSON output to FILE instead of stdout")
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout; exit code only")

    parser = argparse.ArgumentParser(
        prog="circle6",
        description="Exact toolkit for fixed-point weight data of circle "
                    "actions on 6-manifolds.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("validate", parents=[common],
                       help="check a dataset file against every invariant")
    p.add_argument("file", help="dataset JSON document")

    p = sub.add_parser("localize", parents=[common],
                       help="exact localized invariants (c1^3, Todd, c1c2, chi_y)")
    p.add_argument("file")
    p.add_argument("--raw", action="store_true",
                   help="skip the integrality gate and report the raw rational")

    p = sub.add_parser("classify", parents=[common],
                       help="match 4-point data against the six weight families")
    p.add_argument("file")

    p = sub.add_parser("generate", parents=[common],
                       help="emit the dataset of a family member")
    p.add_argument("case", type=_parse_case, help="family tag (A..F or full name)")
    p.add_argument("params", type=int, nargs="+", help="integer parameters")

    p = sub.add_parser("graph", parents=[common],
                       help="enumerate opposite-weight pairing multigraphs")
    p.add_argument("file")
    p.add_argument("--dot", metavar="FILE", default=None,
                   help="also write Graphviz source for every pairing")
    p.add_argument("--cap", type=int, default=DEFAULT_MATCHING_CAP,
                   help="abort when there are more pairings than this")

    p = sub.add_parser("sum", parents=[common],
                       help="fiber connect sum of two datasets (k = 1)")
    p.add_argument("file1")
    p.add_argument("file2")

    p = sub.add_parser("admissible", parents=[common],
                       help="mod-8 existence/uniqueness gate for the sum")
    p.add_argument("n", type=int, help="half-dimension (manifolds have dimension 2n)")
    p.add_argument("k", type=int, help="dimension of the acting torus")

    p = sub.add_parser("framing", parents=[common],
                       help="framing classes of a free orbit of the standard "
                            "weight-(a,b) sphere action")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = sub.add_parser("verify-gluing", parents=[common],
                       help="numerically check the collar gluing identity")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for pseudo-random sampling (default 0)")

    p = sub.add_parser("sweep", parents=[common],
                       help="enumerate a family over parameter ranges and "
                            "check exact assertions")
    p.add_argument("--case", type=_parse_case, required=True)
    for name in _PARAM_NAMES:
        p.add_argument(f"--{name}", type=_parse_range, default=None, metavar="LO..HI")
    p.add_argument("--assert", dest="assertions", type=_parse_assertion,
                   action="append", default=[], metavar="NAME=VALUE",
                   help="exact expectation, e.g. c1_cubed=-2 or c1_cubed=1/2; "
                        "may be repeated; float literals are rejected")
    p.add_argument("--max-failures", type=int, default=20,
                   help="how many failing tuples to list in the report")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses: built once, on first use rather than at import."""
    return build_parser()


def _emit(payload: dict, args) -> None:
    text = core._json_text(payload)
    if args.out:
        core._write_text(args.out, text)
    elif not args.quiet:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# handlers: each returns (exit_code, payload)
# ---------------------------------------------------------------------------

def _cmd_validate(args):
    violations = core.validate(core._read(args.file))
    payload = {"ok": not violations, "violations": [core._json_fields(v) for v in violations]}
    return (0 if not violations else 1), payload


def _cmd_localize(args):
    data = core._read(args.file)
    if args.raw:
        value, coeffs = _localize(data)
        return 0, {
            "c1_cubed": format_rational(value),
            "chi_y_coeffs": coeffs,
            "euler": len(data.points),
            "todd": coeffs[0],
        }
    return 0, chern_report(data).as_json_dict()


def _cmd_classify(args):
    data = core._read(args.file)
    result = classify(data)
    return 0, {
        "matches": [
            {
                "case": m.case.tag.value,
                "params": list(m.case.params),
                "assignment": list(m.assignment),
                "reversed": m.reversed,
            }
            for m in result.matches
        ],
    }


def _cmd_generate(args):
    data = gen_family(JangCase(args.case, tuple(args.params)))
    core._require_valid(data)   # case C with a = 0 carries zero weights
    return 0, core.document(data)


def _cmd_graph(args):
    data = core._read(args.file)
    graphs = build_multigraphs(data, cap=args.cap)
    verdict = connectivity_verdict(graphs)
    if args.dot:
        dot = "".join(g.to_dot(name=f"g{i}") for i, g in enumerate(graphs))
        core._write_text(args.dot, dot)
    return 0, {
        "count": len(graphs),
        "verdict": verdict.value,
        "graphs": [{**g._asdict(), "connected": g.is_connected} for g in graphs],
    }


def _cmd_sum(args):
    d1 = core._read(args.file1)
    d2 = core._read(args.file2)
    result = kustarev_sum(d1, None, d2, None)
    payload: dict = {"report": result.report.as_json_dict()}
    if args.out:
        # --out receives the composed dataset document itself, so it can be
        # fed straight back into any other subcommand; the report goes to
        # stdout
        core.save(result.data, args.out)
        payload["written_to"] = args.out
        args.out = None
    else:
        payload["dataset"] = core.document(result.data)
    return 0, payload


def _cmd_admissible(args):
    dims = DimensionPair(args.n, args.k)
    adm = kustarev_admissible(dims)
    return 0, {
        "n": args.n,
        "k": args.k,
        "slice_dim": dims.slice_dim,
        "exists": adm.exists,
        "unique": adm.unique,
    }


def _cmd_framing(args):
    framing = equivariant_normal_framing_class(args.a, args.b)
    return 0, {
        "a": args.a,
        "b": args.b,
        "rotation_loop_class": psi_flip(framing),   # psi_flip is an involution
        "equivariant_normal_framing_class": framing,
        "nontrivial": framing == 1,
    }


def _cmd_verify_gluing(args):
    check = verify_framing_reversal_identity(
        samples=args.samples, tolerance=args.tol, seed=args.seed)
    return (0 if check.passed else 1), check.as_json_dict()


def _case_ranges(args, tag: CaseTag) -> list[range]:
    wanted = param_names(tag)
    given = {name: getattr(args, name) for name in _PARAM_NAMES}
    missing = [name for name in wanted if given[name] is None]
    extra = [name for name, rng in given.items() if rng is not None and name not in wanted]
    if missing or extra:
        msgs = []
        if missing:
            msgs.append(f"case {tag.value} needs --" + " --".join(missing))
        if extra:
            msgs.append("unused: --" + " --".join(extra))
        raise ParseError("; ".join(msgs))
    return [given[name] for name in wanted]


def _cmd_sweep(args):
    if args.max_failures < 0:
        raise BadArgument(f"--max-failures must be a nonnegative integer, got {args.max_failures}")
    ranges = _case_ranges(args, args.case)
    checked = 0
    skipped = 0
    failures: list[dict] = []
    unlisted = 0
    for params in product(*ranges):
        try:
            data = gen_family(JangCase(args.case, params))
        except ToolkitError:
            skipped += 1  # constraint-violating tuple, e.g. case A with a = b
            continue
        checked += 1
        # every tuple is checked, so data that fails validation is a
        # failure even when nothing is asserted
        try:
            report = chern_report(data)
        except ToolkitError as exc:
            misses = [(None, None, f"{type(exc).__name__}: {exc}")]
        else:
            misses = [(name, format_rational(expected), format_rational(getattr(report, name)))
                      for name, expected in args.assertions if getattr(report, name) != expected]
        for name, expected, actual in misses:
            if len(failures) < args.max_failures:
                failures.append({"params": list(params), "invariant": name,
                                 "expected": expected, "actual": actual})
            else:
                unlisted += 1
    payload = {
        "case": args.case.value,
        "assertions": [f"{name}={format_rational(v)}" for name, v in args.assertions],
        "checked": checked,
        "skipped": skipped,
        "failures": failures,
        "failures_not_listed": unlisted,
        "ok": not failures and not unlisted,
    }
    return (0 if payload["ok"] else 1), payload


_HANDLERS = {
    "validate": _cmd_validate,
    "localize": _cmd_localize,
    "classify": _cmd_classify,
    "generate": _cmd_generate,
    "graph": _cmd_graph,
    "sum": _cmd_sum,
    "admissible": _cmd_admissible,
    "framing": _cmd_framing,
    "verify-gluing": _cmd_verify_gluing,
    "sweep": _cmd_sweep,
}


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        code, payload = _HANDLERS[args.command](args)
        _emit(payload, args)
        return code
    except ToolkitError as exc:
        return _fail(exc, args)


def _fail(exc: ToolkitError, args) -> int:
    """Emit the error payload of exc and return exit code 1; when --out
    cannot be written, that failure goes to stdout instead."""
    try:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args)
    except BadArgument as write_error:
        args.out = None
        return _fail(write_error, args)
    return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
