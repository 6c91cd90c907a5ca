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

from . import constructions, lab, patterns, perm, stacksort
from .errors import (InvalidPermutationError, ParseError, PreconditionError,
                     ResourceBoundError)

# each claim's arguments, as namespace names, in the order its
# `lab.verify_<claim>` takes them; all must be given, and no other
_CLAIM_ARGS = {"theorem1": ("m", "n"), "theorem2": ("m",),
               "prop2": ("m", "n_max"), "thm3_count": ("n",),
               "catalan": ("n",), "west_zeilberger": ("n",), "all": ()}
VERIFY_CLAIMS = tuple(_CLAIM_ARGS)


class UsageError(Exception):
    """Bad command line; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _integer(text: str) -> int:
    """ASCII digits after an optional minus sign.  `int` alone also takes
    other scripts' digits, `_`, `+` and surrounding spaces."""
    if not (text.isascii() and text.removeprefix("-").isdecimal()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _nonneg(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="stacksort", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    def add_perm_command(name, handler, help_text):
        p = add_command(name, handler, help_text)
        p.add_argument("perm", nargs="+", help="one-line notation "
                       "(space-separated, or contiguous digits for n <= 9)")
        return p

    p = add_perm_command("sort", _sort, "apply the stack-sorting map")
    p.add_argument("--iterations", type=_nonneg, default=1, metavar="T")
    p.add_argument("--compact", action="store_true")

    p = add_perm_command("trace", _trace,
                         "push/pop transcript of one sorting pass")
    p.add_argument("--compact", action="store_true")

    add_perm_command("stats", _stats,
                     "descents, descent tops, LR maxima, tail length")

    p = add_perm_command("characterize", _characterize,
                         "membership in the image of the t-fold map")
    p.add_argument("--t", type=_nonneg, required=True)
    p.add_argument("--max-n", type=_positive, default=None)

    p = add_perm_command("preimage", _preimage,
                         "canonical one-pass preimage with certificate")
    p.add_argument("--compact", action="store_true")

    p = add_perm_command("lift", _lift, "invert t sorting passes (t "
                         "defaults to the tail length)")
    p.add_argument("--t", type=_nonneg, default=None)
    p.add_argument("--compact", action="store_true")

    for name in ("zeta", "xi"):
        p = add_command(name, _family, f"the {name} family member")
        p.add_argument("--l", dest="ell", type=_positive, required=True)
        p.add_argument("--m", type=_positive, required=True)
        p.add_argument("--compact", action="store_true")

    p = add_command("bijection", _bijection, "avoider -> set partition, or "
                    "the inverse when the argument is a {…}{…} partition")
    p.add_argument("value", nargs="+")
    p.add_argument("--compact", action="store_true")

    p = add_command("count-image", _count_image, "exact |image of the "
                    "t-fold map over S_n|")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--t", type=_nonneg, required=True)
    p.add_argument("--keep-elements", action="store_true")
    p.add_argument("--max-n", type=_positive, default=None)
    p.add_argument("--format", choices=("plain", "csv", "jsonl"),
                   default="plain")

    p = add_command("verify", _verify, "run a verification claim")
    p.add_argument("claim", choices=VERIFY_CLAIMS)
    p.add_argument("--m", type=_positive, default=None)
    p.add_argument("--n", type=_positive, default=None)
    p.add_argument("--n-max", type=_positive, default=None)
    p.add_argument("--max-n", type=_positive, default=None)
    p.add_argument("--format", choices=("plain", "csv", "jsonl"),
                   default="plain")

    p = add_command("explore", _explore, "image sizes across the open "
                    "window m <= n <= 2m-2")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--max-n", type=_positive, default=None)
    p.add_argument("--format", choices=("plain", "csv", "jsonl"),
                   default="plain")

    return parser


def _env_max_n() -> int | None:
    raw = os.environ.get("STACKSORT_MAX_N")
    if raw is None:
        return None
    try:
        value = _integer(raw)
    except ValueError:
        raise UsageError(f"STACKSORT_MAX_N must be an integer, got {raw!r}")
    if value < 1:
        raise UsageError(f"STACKSORT_MAX_N must be positive, got {raw!r}")
    return value


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line, raising UsageError / ParseError on bad input.

    `ns.handler(ns)` runs the command.  A command's `perm` is already a
    parsed permutation, and a command with `--max-n` falls back to
    `STACKSORT_MAX_N` (read before the permutation is parsed)."""
    ns = _build_parser().parse_args(argv)
    if "max_n" in ns and ns.max_n is None:
        ns.max_n = _env_max_n()
    if "perm" in ns:
        ns.perm = perm.parse_permutation(" ".join(ns.perm))
    return ns


def _fmt(p, ns: argparse.Namespace) -> str:
    return perm.format_permutation(p, compact=ns.compact)


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


def _warn_bound(max_n: int | None) -> None:
    if max_n is not None and max_n > lab.DEFAULT_MAX_N:
        print(f"warning: enumeration bound raised to {max_n} "
              f"(default {lab.DEFAULT_MAX_N}); expect factorial growth",
              file=sys.stderr)


# Command handlers: each prints its results and returns an exit status, or
# None for success.


def _sort(ns) -> None:
    print(_fmt(stacksort.stack_sort_iterate(ns.perm, ns.iterations), ns))


def _trace(ns) -> None:
    print(stacksort.format_trace(stacksort.trace_stack_sort(ns.perm),
                                 compact=ns.compact))


def _stats(ns) -> None:
    p = ns.perm
    print(f"length: {len(p)}")
    print(f"descents: {_fmt_set(perm.descents(p))}")
    print(f"descent-tops: {_fmt_set(perm.descent_tops(p))}")
    print(f"lr-maxima: {_fmt_set(perm.lr_maxima(p))}")
    tl = perm.tail_length(p) if perm.is_standard(p) else "-"
    print(f"tail-length: {tl}")


def _characterize(ns) -> None:
    _warn_bound(ns.max_n)
    member, rule = lab.characterize_membership_rule(ns.perm, ns.t,
                                                    max_n=ns.max_n)
    print(f"{'yes' if member else 'no'} {rule}")


def _preimage(ns) -> None:
    p = ns.perm
    sigma = constructions.canonical_preimage(p)
    print(_fmt(sigma, ns))
    avoids = patterns.avoids_barred_3241(sigma)
    print(f"certificate: s(sigma) = {_fmt(stacksort.stack_sort(sigma), ns)}"
          f" | avoids-barred-3241 = {'yes' if avoids else 'no'}"
          f" | lrmax(sigma) = {_fmt_set(perm.lr_maxima(sigma))}"
          f" | lrmax(pi) = {_fmt_set(perm.lr_maxima(p))}")


def _lift(ns) -> None:
    t = perm.tail_length(ns.perm) if ns.t is None else ns.t
    sigma = constructions.iterated_lift(ns.perm, t)
    print(_fmt(sigma, ns))
    avoids = patterns.avoids_barred_3241(sigma)
    print(f"certificate: s^{t}(sigma) = "
          f"{_fmt(stacksort.stack_sort_iterate(sigma, t), ns)}"
          f" | avoids-barred-3241 = {'yes' if avoids else 'no'}")


def _family(ns) -> None:
    if 2 * ns.m - 3 > perm.MAX_PARSE_LEN:
        raise ResourceBoundError(
            f"{ns.command} for m = {ns.m} has length {2 * ns.m - 3}, over "
            f"the {perm.MAX_PARSE_LEN} entries a command reads back")
    # the command name is the construction's name: zeta or xi
    print(_fmt(getattr(constructions, ns.command)(ns.ell, ns.m), ns))


def _bijection(ns) -> None:
    text = " ".join(ns.value)
    if text.lstrip().startswith("{"):
        print(_fmt(patterns.callan_inverse(patterns.parse_partition(text)),
                   ns))
    else:
        print(patterns.format_partition(
            patterns.callan_partition(perm.parse_permutation(text))))


def _count_image(ns) -> None:
    _warn_bound(ns.max_n)
    report = lab.image_of_iterate(ns.n, ns.t, keep_elements=ns.keep_elements,
                                  max_n=ns.max_n)
    _emit_records([report.as_record()], ns.format, [str(report.count)])


def _verify(ns) -> int:
    _warn_bound(ns.max_n)
    names = _CLAIM_ARGS[ns.claim]
    given = [x for x in ("m", "n", "n_max") if getattr(ns, x) is not None]
    for verb, bad in (("does not take", [x for x in given if x not in names]),
                      ("requires", [x for x in names if x not in given])):
        if bad:
            flags = ", ".join("--" + x.replace("_", "-") for x in bad)
            raise UsageError(f"verify {ns.claim} {verb} {flags}")
    if ns.claim == "all":
        reports = lab.verify_all(ns.max_n or lab.DEFAULT_MAX_N)
    else:
        claim = getattr(lab, f"verify_{ns.claim}")
        reports = [claim(*(getattr(ns, x) for x in names), max_n=ns.max_n)]
    _emit_records([r.as_record() for r in reports], ns.format,
                  [_verify_plain_line(r) for r in reports])
    return 1 if any(not r.passed for r in reports) else 0


def _explore(ns) -> None:
    _warn_bound(ns.max_n)
    rows = lab.explore_open(ns.m, max_n=ns.max_n)
    plain = ["n t count"] + [f"{r.n} {r.t} {r.count}" for r in rows]
    _emit_records([r.as_record() for r in rows], ns.format, plain)


def execute(ns: argparse.Namespace) -> int:
    """Run a parsed command; prints results and returns the exit status."""
    return ns.handler(ns) or 0


def run(argv: list[str] | None = None) -> int:
    """Parse and execute, mapping errors to the documented exit codes."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        return execute(parse_args(argv))
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
    except ResourceBoundError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3


def main() -> None:  # console entry point
    raw = getattr(sys.stdout, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        # unbuffered (`-u`, PYTHONUNBUFFERED): text written straight to the
        # raw file loses the rest of a short write to a closed pipe, and
        # with it the error; a buffered writer retries until it raises
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(raw),
                                      encoding=sys.stdout.encoding,
                                      errors=sys.stdout.errors)
    try:
        status = run()
        sys.stdout.flush()  # so that a reader's closed pipe shows up here
    except OSError as exc:
        # a reader's closed pipe stays silent.  The interpreter flushes
        # stdout again at exit; send that to devnull so that it does not
        # raise a second time
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
