"""Command-line front end.

Commands: sort, trace, stats, characterize, preimage, lift, zeta, xi,
bijection, count-image, verify, explore.  Exit codes: 0 success, 1 usage /
parse errors (also: any failed verification), 2 domain precondition
violations, 3 resource bounds.  `STACKSORT_MAX_N` mirrors `--max-n`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

from . import constructions, lab, patterns, perm, stacksort
from .errors import (InvalidPermutationError, ParseError, PreconditionError,
                     ResourceBoundError)

VERIFY_CLAIMS = ("theorem1", "theorem2", "prop2", "thm3_count", "catalan",
                 "west_zeilberger", "all")


class UsageError(Exception):
    """Bad command line; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class CommandPlan:
    """A type-checked invocation: permutations and partitions are already
    parsed, so execution only sees valid values."""

    command: str
    arguments: dict = field(default_factory=dict)
    output_format: str = "plain"
    compact: bool = False
    max_n: int | None = None
    shards: int = 1
    keep_elements: bool = False


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="stacksort", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_perm_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("perm", nargs="+", help="one-line notation "
                       "(space-separated, or contiguous digits for n <= 9)")
        return p

    p = add_perm_command("sort", "apply the stack-sorting map")
    p.add_argument("--iterations", type=_nonneg, default=1, metavar="T")
    p.add_argument("--compact", action="store_true")

    p = add_perm_command("trace", "push/pop transcript of one sorting pass")
    p.add_argument("--compact", action="store_true")

    add_perm_command("stats", "descents, descent tops, LR maxima, tail length")

    p = add_perm_command("characterize",
                         "membership in the image of the t-fold map")
    p.add_argument("--t", type=_nonneg, required=True)
    p.add_argument("--max-n", type=_positive, default=None)

    p = add_perm_command("preimage",
                         "canonical one-pass preimage with certificate")
    p.add_argument("--compact", action="store_true")

    p = add_perm_command("lift", "invert t sorting passes (t defaults to "
                         "the tail length)")
    p.add_argument("--t", type=_nonneg, default=None)
    p.add_argument("--compact", action="store_true")

    for name in ("zeta", "xi"):
        p = sub.add_parser(name, help=f"the {name} family member")
        p.add_argument("--l", dest="ell", type=_positive, required=True)
        p.add_argument("--m", type=_positive, required=True)
        p.add_argument("--compact", action="store_true")

    p = sub.add_parser("bijection", help="avoider -> set partition, or the "
                       "inverse when the argument is a {…}{…} partition")
    p.add_argument("value", nargs="+")
    p.add_argument("--compact", action="store_true")

    p = sub.add_parser("count-image", help="exact |image of the t-fold map "
                       "over S_n|")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--t", type=_nonneg, required=True)
    p.add_argument("--shards", type=_positive, default=1)
    p.add_argument("--keep-elements", action="store_true")
    p.add_argument("--max-n", type=_positive, default=None)
    p.add_argument("--format", choices=("plain", "csv", "jsonl"),
                   default="plain")

    p = sub.add_parser("verify", help="run a verification claim")
    p.add_argument("claim", choices=VERIFY_CLAIMS)
    p.add_argument("--m", type=_positive, default=None)
    p.add_argument("--n", type=_positive, default=None)
    p.add_argument("--n-max", type=_positive, default=None)
    p.add_argument("--shards", type=_positive, default=1)
    p.add_argument("--max-n", type=_positive, default=None)
    p.add_argument("--format", choices=("plain", "csv", "jsonl"),
                   default="plain")

    p = sub.add_parser("explore", help="image sizes across the open window "
                       "m <= n <= 2m-2")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--shards", type=_positive, default=1)
    p.add_argument("--max-n", type=_positive, default=None)
    p.add_argument("--format", choices=("plain", "csv", "jsonl"),
                   default="plain")

    return parser


def _env_max_n() -> int | None:
    raw = os.environ.get("STACKSORT_MAX_N")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"STACKSORT_MAX_N must be an integer, got {raw!r}")
    if value < 1:
        raise UsageError(f"STACKSORT_MAX_N must be positive, got {raw!r}")
    return value


def parse_args(argv: list[str]) -> CommandPlan:
    """Build a CommandPlan, raising UsageError / ParseError on bad input."""
    ns = _build_parser().parse_args(argv)
    plan = CommandPlan(command=ns.command)
    plan.compact = getattr(ns, "compact", False)
    plan.shards = getattr(ns, "shards", 1)
    plan.keep_elements = getattr(ns, "keep_elements", False)
    plan.output_format = getattr(ns, "format", "plain")
    plan.max_n = getattr(ns, "max_n", None)
    if plan.max_n is None:
        plan.max_n = _env_max_n()

    args = plan.arguments
    if ns.command in ("sort", "trace", "stats", "characterize", "preimage",
                      "lift"):
        args["perm"] = perm.parse_permutation(" ".join(ns.perm))
    if ns.command == "sort":
        args["t"] = ns.iterations
    if ns.command in ("characterize", "lift"):
        args["t"] = ns.t
    if ns.command in ("zeta", "xi"):
        args["ell"] = ns.ell
        args["m"] = ns.m
    if ns.command == "bijection":
        text = " ".join(ns.value)
        if text.lstrip().startswith("{"):
            args["partition"] = patterns.parse_partition(text)
        else:
            args["perm"] = perm.parse_permutation(text)
    if ns.command == "count-image":
        args["n"] = ns.n
        args["t"] = ns.t
    if ns.command == "verify":
        args["claim"] = ns.claim
        args["m"] = ns.m
        args["n"] = ns.n
        args["n_max"] = ns.n_max
    if ns.command == "explore":
        args["m"] = ns.m
    return plan


def _fmt(p, plan: CommandPlan) -> str:
    return perm.format_permutation(p, compact=plan.compact)


def _fmt_set(values) -> str:
    return " ".join(str(v) for v in sorted(values)) if values else "-"


def _emit_records(records: list[dict], fmt: str, plain_lines: list[str]) -> None:
    if fmt == "plain":
        for line in plain_lines:
            print(line)
    elif fmt == "jsonl":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    elif records:  # csv; no records means no header either
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(records[0]))
        writer.writeheader()
        for rec in records:
            row = dict(rec)
            for key, value in row.items():
                if isinstance(value, list):
                    row[key] = ";".join(map(str, value))
                elif isinstance(value, dict):
                    row[key] = " ".join(f"{k}={v}" for k, v in value.items())
                elif value is None:
                    row[key] = ""
            writer.writerow(row)
        print(out.getvalue(), end="")


def _verify_plain_line(report) -> str:
    tag = "PASS" if report.passed else "FAIL"
    params = " ".join(f"{k}={v}" for k, v in report.parameters.items())
    return (f"{tag} {report.claim} {params} "
            f"expected={report.expected} observed={report.observed}")


def _warn_bound(plan: CommandPlan) -> None:
    if plan.max_n is not None and plan.max_n > lab.DEFAULT_MAX_N:
        print(f"warning: enumeration bound raised to {plan.max_n} "
              f"(default {lab.DEFAULT_MAX_N}); expect factorial growth",
              file=sys.stderr)


def execute(plan: CommandPlan) -> int:
    """Run a plan; prints results and returns the exit status."""
    args = plan.arguments
    cmd = plan.command

    if cmd == "sort":
        print(_fmt(stacksort.stack_sort_iterate(args["perm"], args["t"]), plan))
    elif cmd == "trace":
        print(stacksort.format_trace(stacksort.trace_stack_sort(args["perm"]),
                                     compact=plan.compact))
    elif cmd == "stats":
        p = args["perm"]
        print(f"length: {len(p)}")
        print(f"descents: {_fmt_set(perm.descents(p))}")
        print(f"descent-tops: {_fmt_set(perm.descent_tops(p))}")
        print(f"lr-maxima: {_fmt_set(perm.lr_maxima(p))}")
        tl = perm.tail_length(p) if perm.is_standard(p) else "-"
        print(f"tail-length: {tl}")
    elif cmd == "characterize":
        _warn_bound(plan)
        member, rule = lab.characterize_membership_rule(
            args["perm"], args["t"], max_n=plan.max_n)
        print(f"{'yes' if member else 'no'} {rule}")
    elif cmd == "preimage":
        p = args["perm"]
        sigma = constructions.canonical_preimage(p)
        print(_fmt(sigma, plan))
        avoids = patterns.avoids_barred_3241(sigma)
        print(f"certificate: s(sigma) = {_fmt(stacksort.stack_sort(sigma), plan)}"
              f" | avoids-barred-3241 = {'yes' if avoids else 'no'}"
              f" | lrmax(sigma) = {_fmt_set(perm.lr_maxima(sigma))}"
              f" | lrmax(pi) = {_fmt_set(perm.lr_maxima(p))}")
    elif cmd == "lift":
        p = args["perm"]
        t = args["t"]
        if t is None:
            t = perm.tail_length(p)
        sigma = constructions.iterated_lift(p, t)
        print(_fmt(sigma, plan))
        avoids = patterns.avoids_barred_3241(sigma)
        print(f"certificate: s^{t}(sigma) = "
              f"{_fmt(stacksort.stack_sort_iterate(sigma, t), plan)}"
              f" | avoids-barred-3241 = {'yes' if avoids else 'no'}")
    elif cmd == "zeta":
        print(_fmt(constructions.zeta(args["ell"], args["m"]), plan))
    elif cmd == "xi":
        print(_fmt(constructions.xi(args["ell"], args["m"]), plan))
    elif cmd == "bijection":
        if "partition" in args:
            print(_fmt(patterns.callan_inverse(args["partition"]), plan))
        else:
            print(patterns.format_partition(
                patterns.callan_partition(args["perm"])))
    elif cmd == "count-image":
        _warn_bound(plan)
        report = lab.image_of_iterate(
            args["n"], args["t"], keep_elements=plan.keep_elements,
            shards=plan.shards, max_n=plan.max_n)
        _emit_records([report.as_record()], plan.output_format,
                      [str(report.count)])
    elif cmd == "verify":
        _warn_bound(plan)
        reports = _run_verify(plan)
        _emit_records([r.as_record() for r in reports], plan.output_format,
                      [_verify_plain_line(r) for r in reports])
        if any(not r.passed for r in reports):
            return 1
    elif cmd == "explore":
        _warn_bound(plan)
        rows = lab.explore_open(args["m"], shards=plan.shards,
                                max_n=plan.max_n)
        plain = ["n t count"] + [f"{r.n} {r.t} {r.count}" for r in rows]
        _emit_records([r.as_record() for r in rows], plan.output_format, plain)
    else:  # pragma: no cover - argparse restricts the choices
        raise UsageError(f"unknown command {cmd!r}")
    return 0


def _require_args(claim: str, **kwargs) -> None:
    missing = [name for name, value in kwargs.items() if value is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise UsageError(f"verify {claim} requires {flags}")


def _run_verify(plan: CommandPlan) -> list:
    args = plan.arguments
    claim = args["claim"]
    m, n, n_max = args["m"], args["n"], args["n_max"]
    max_n = plan.max_n
    shards = plan.shards
    if claim == "all":
        bound = max_n if max_n is not None else lab.DEFAULT_MAX_N
        return lab.verify_all(bound, shards=shards)
    if claim == "theorem1":
        _require_args(claim, m=m, n=n)
        return [lab.verify_theorem1(m, n, shards=shards, max_n=max_n)]
    if claim == "theorem2":
        _require_args(claim, m=m)
        return [lab.verify_theorem2(m, shards=shards, max_n=max_n)]
    if claim == "prop2":
        _require_args(claim, m=m, n_max=n_max)
        return [lab.verify_prop2(m, n_max, shards=shards, max_n=max_n)]
    _require_args(claim, n=n)
    if claim == "thm3_count":
        return [lab.verify_thm3_count(n, max_n=max_n)]
    if claim == "catalan":
        return [lab.verify_catalan(n, max_n=max_n)]
    return [lab.verify_west_zeilberger(n, max_n=max_n)]


def run(argv: list[str] | None = None) -> int:
    """Parse and execute, mapping errors to the documented exit codes."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        plan = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (InvalidPermutationError, PreconditionError) as exc:
        # text parsed but the value breaks a domain invariant
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(plan)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InvalidPermutationError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBoundError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
