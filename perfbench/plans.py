"""Seeded inputs, definition-shaped oracles and answer checks for the four
workloads.

A plan is a list of `Op`s: one operation a single client waits for, the
answer it must give, and how much enumeration it asks for.  Plans are pure
functions of the workload name and the seed; the oracles run here, during
set-up, never inside the timed region.  The oracles are written from the
definitions (the recursion s(L n R) = s(L) s(R) n, the positional barred
pattern search, brute-force images over S_n) and share no code with the
package they check.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from typing import Any, Callable


@dataclass
class Op:
    """`call()` runs the operation; `check(result)` returns how many of its
    `answers` were (wrong, errors): a wrong answer is a result that
    disagrees with the oracle, an error is a crash or a refusal where an
    answer was due.  `perms` is the number of permutations the question
    asks the image engine to enumerate."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[int, int]]
    answers: int = 1
    perms: int = 0


def _verdict(good: bool) -> tuple[int, int]:
    return (0, 0) if good else (1, 0)


def _expect(expected) -> Callable[[Any], tuple[int, int]]:
    return lambda result: _verdict(result == expected)


# ---------------------------------------------------------------------------
# Oracles, from the definitions

def s_rec(p: tuple) -> tuple:
    """One stack-sorting pass by the recursion s(L n R) = s(L) s(R) n."""
    if not p:
        return ()
    i = p.index(max(p))
    return s_rec(p[:i]) + s_rec(p[i + 1:]) + (p[i],)


def s_iter(p: tuple, t: int) -> tuple:
    for _ in range(t):
        p = s_rec(p)
    return p


def machine_events(p: tuple) -> tuple:
    """Push/pop events of the stack machine: pop while the top is smaller
    than the next entry, then push it; empty the stack at the end."""
    events, stack = [], []
    for x in p:
        while stack and stack[-1] < x:
            events.append(("pop", stack.pop()))
        stack.append(x)
        events.append(("push", x))
    while stack:
        events.append(("pop", stack.pop()))
    return tuple(events)


def barred_witness(p: tuple) -> tuple | None:
    """Lexicographically least 1-based (i1, i2, i3) with p[i1] > p[i2] >
    p[i3] and nothing larger than p[i1] strictly between i2 and i3."""
    n = len(p)
    for i1, i2, i3 in itertools.combinations(range(n), 3):
        if (p[i1] > p[i2] > p[i3]
                and max(p[i2 + 1:i3], default=0) < p[i1]):
            return (i1 + 1, i2 + 1, i3 + 1)
    return None


def avoids(p: tuple) -> bool:
    return barred_witness(p) is None


def lr_maxima(p: tuple) -> set:
    return {v for i, v in enumerate(p) if v > max(p[:i], default=0)}


def tail_length(p: tuple) -> int:
    ell = 0
    while ell < len(p) and p[len(p) - 1 - ell] == len(p) - ell:
        ell += 1
    return ell


def callan_perm(blocks) -> tuple:
    """Blocks by increasing maximum, each as its maximum then the rest
    increasing."""
    out: list[int] = []
    for b in sorted(blocks, key=max):
        out.append(max(b))
        out.extend(sorted(set(b) - {max(b)}))
    return tuple(out)


def zeta(ell: int, m: int) -> tuple:
    return (ell, 2, 1) + tuple(k for k in range(3, 2 * m - 2) if k != ell)


def xi(ell: int, m: int) -> tuple:
    return ((ell,) + tuple(range(m + 1, 2 * m - 2))
            + tuple(k for k in range(2, m + 1) if k != ell) + (1,))


def image_levels(n: int, t_max: int) -> list[frozenset]:
    """Brute-force images s^t(S_n) for t = 0..t_max."""
    level = frozenset(itertools.permutations(range(1, n + 1)))
    levels = [level]
    for _ in range(t_max):
        level = frozenset(s_rec(p) for p in level)
        levels.append(level)
    return levels


def membership_rule(p: tuple, t: int) -> str:
    """The rule the characterization theorems assign to (p, t)."""
    n = len(p)
    m = n - t
    if m >= 1 and n >= 2 * m - 2:
        return "thm1"
    if m >= 3 and n == 2 * m - 3:
        if tail_length(p) >= t and avoids(p):
            return "thm2-characterized"
        if any(p == zeta(ell, m) for ell in range(3, m + 1)):
            return "thm2-zeta"
        return "thm2-characterized"
    return "oracle-fallback"


def theorem_member(p: tuple, t: int) -> bool:
    """Membership in s^t(S_n) by Theorems 1 and 2 (their regimes only)."""
    if tail_length(p) >= t and avoids(p):
        return True
    return membership_rule(p, t) == "thm2-zeta"


def scanned(n: int, t: int, keep_elements: bool) -> int:
    """Permutations one image question enumerates (the 0-fold count-only
    image is all of S_n and needs no scan)."""
    return math.factorial(n) if t or keep_elements else 0


# ---------------------------------------------------------------------------
# Random inputs

def rand_perm(rng: random.Random, n: int) -> tuple:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def rand_blocks(rng: random.Random, k: int) -> tuple:
    blocks: list[set] = []
    for v in range(1, k + 1):
        j = rng.randrange(len(blocks) + 1)
        if j == len(blocks):
            blocks.append({v})
        else:
            blocks[j].add(v)
    return tuple(sorted((frozenset(b) for b in blocks), key=max))


def rand_avoider(rng: random.Random, k: int) -> tuple:
    return callan_perm(rand_blocks(rng, k))


def padded(core: tuple, n: int) -> tuple:
    """core followed by the fixed tail len(core)+1 .. n."""
    return core + tuple(range(len(core) + 1, n + 1))


# ---------------------------------------------------------------------------
# image-scan

IMAGE_N = 9
IMAGE_COUNTS = {1: 11033, 2: 1081, 3: 207, 4: 52, 5: 15, 6: 5, 7: 2}


def image_scan(rng: random.Random, mods) -> list[Op]:
    ts = list(IMAGE_COUNTS)
    rng.shuffle(ts)
    return [Op(f"image t={t}",
               lambda t=t: mods.lab.image_of_iterate(IMAGE_N, t, shards=1),
               lambda r, t=t: _verdict(r.count == IMAGE_COUNTS[t]),
               perms=scanned(IMAGE_N, t, False))
            for t in ts]


# ---------------------------------------------------------------------------
# verify-grid

VERIFY_MAX_N = 8
VERIFY_REPORTS = 55
# Permutations that `verify_all(8)` asks the image engine to enumerate.  The
# claim grid lives in lab.py; a traced run checks this figure against the
# traced `lab.perms_scanned`, so it cannot go stale unnoticed.
VERIFY_PERMS = 415141


def _check_reports(reports) -> tuple[int, int]:
    if len(reports) != VERIFY_REPORTS:
        return VERIFY_REPORTS, 0
    return sum(not r.passed for r in reports), 0


def verify_grid(rng: random.Random, mods) -> list[Op]:
    # the claim grid is fixed; the seed has nothing to vary here
    return [Op("verify_all",
               lambda: mods.lab.verify_all(VERIFY_MAX_N, shards=2),
               _check_reports, answers=VERIFY_REPORTS, perms=VERIFY_PERMS)]


# ---------------------------------------------------------------------------
# perm-queries

QUERIES = 20000
FALLBACK_EVERY = 1000   # 0.1 %: one oracle-fallback query per thousand
FALLBACK_N = 8
# No traffic has been observed to weigh the kinds by, so each kind of query
# is equally likely and none decides the mix's percentiles by fiat.
QUERY_KINDS = ("sort", "trace", "barred", "characterize", "lift",
               "preimage", "callan")


def _sort_op(rng, mods, n):
    p, t = rand_perm(rng, n), rng.randint(1, 3)
    return Op("sort", lambda: mods.stacksort.stack_sort_iterate(p, t),
              _expect(s_iter(p, t)))


def _trace_op(rng, mods, n):
    p = rand_perm(rng, n)
    events, output = machine_events(p), s_rec(p)
    return Op("trace", lambda: mods.stacksort.trace_stack_sort(p),
              lambda r: _verdict((r.events, r.output) == (events, output)))


def _barred_op(rng, mods, n):
    p = rand_perm(rng, n) if rng.random() < 0.5 else \
        padded(rand_avoider(rng, rng.randint(2, n)), n)
    want = barred_witness(p)
    return Op("barred", lambda: mods.patterns.find_barred_3241(p),
              lambda r: _verdict((r and r.positions) == want))


def _characterize_op(rng, mods, n):
    if rng.random() < 0.3 and n % 2:
        m = (n + 3) // 2                      # Theorem 2: n = 2m-3
        t = n - m
    else:
        t = rng.randint(n - (n + 2) // 2, n - 1)   # Theorem 1: n >= 2m-2
        m = n - t
    roll = rng.random()
    if roll < 0.45:
        # an avoider whose fixed tail is one short of t about half the time
        tail = t - 1 if rng.random() < 0.5 else rng.randint(t, n - 1)
        p = padded(rand_avoider(rng, n - tail), n)
    elif roll < 0.9 or n != 2 * m - 3:
        p = rand_perm(rng, n)
    else:
        p = zeta(rng.randint(3, m), m)
    want = (theorem_member(p, t), membership_rule(p, t))
    return Op("characterize",
              lambda: mods.lab.characterize_membership_rule(p, t),
              _expect(want))


def _lift_op(rng, mods, n):
    tail = rng.randint(1, min(8, n - 2))
    t = rng.randint(1, tail)
    p = padded(rand_avoider(rng, n - tail), n)

    def check(sigma):
        return _verdict(sorted(sigma) == list(range(1, n + 1))
                        and s_iter(sigma, t) == p and avoids(sigma))
    return Op("lift", lambda: mods.constructions.iterated_lift(p, t), check)


def _preimage_op(rng, mods, n):
    p = padded(rand_avoider(rng, rng.randint(1, n - 1)), n)

    def check(sigma):
        return _verdict(s_rec(sigma) == p and avoids(sigma)
                        and lr_maxima(sigma) == lr_maxima(p))
    return Op("preimage", lambda: mods.constructions.canonical_preimage(p),
              check)


def _callan_op(rng, mods, n):
    blocks = rand_blocks(rng, n)
    p = callan_perm(blocks)
    return Op("callan", lambda: mods.patterns.callan_partition(p),
              _expect(blocks))


def _fallback_op(rng, mods, t, image):
    p = rng.choice(image) if rng.random() < 0.5 else rand_perm(rng, FALLBACK_N)
    want = (p in image, "oracle-fallback")
    return Op("fallback",
              lambda: mods.lab.characterize_membership_rule(p, t),
              _expect(want), perms=scanned(FALLBACK_N, t, True))


def perm_queries(rng: random.Random, mods) -> list[Op]:
    levels = image_levels(FALLBACK_N, 2)
    images = {t: sorted(levels[t]) for t in (1, 2)}
    makers = {"sort": _sort_op, "trace": _trace_op, "barred": _barred_op,
              "characterize": _characterize_op, "lift": _lift_op,
              "preimage": _preimage_op, "callan": _callan_op}
    ops = []
    for i in range(QUERIES):
        if i % FALLBACK_EVERY == FALLBACK_EVERY // 2:
            t = 1 + (i // FALLBACK_EVERY) % 2
            ops.append(_fallback_op(rng, mods, t, images[t]))
        else:
            kind = rng.choice(QUERY_KINDS)
            ops.append(makers[kind](rng, mods, rng.randint(8, 20)))
    return ops


# ---------------------------------------------------------------------------
# cli-session

CLI_MAIN = "from stacksortlab.cli import main; main()"
CLI_TIMEOUT_S = 60

# The composition is fixed so that every seed asks for the same amount of
# enumeration; the seed picks the permutations and the order.  No usage has
# been observed to weigh the commands by, so each of the twelve answering
# kinds (bijection counts once per direction) is run CLI_PER_KIND times and
# each error path once: 12 * 7 + 16 = 100 commands.
CLI_PER_KIND = 7
CLI_COUNT_IMAGE = ((7, 1), (7, 2), (7, 3), (6, 1), (6, 2), (5, 1), (5, 2))
CLI_THEOREM1 = ((2, 5), (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (4, 7))
# three in the Theorem 1 regime, two in Theorem 2's, two oracle fallbacks
CLI_CHARACTERIZE = ((7, 5), (7, 3), (6, 2), (7, 2), (5, 1), (7, 1), (6, 1))
# (argv, exit codes accepted, stderr marker)
CLI_ERRORS = (
    (["sort", "4a62"], {1}, "parse error:"),
    (["sort", "4", "1", "1"], {1}, "parse error:"),
    (["frobnicate"], {1}, "usage error:"),
    (["verify", "theorem1", "--m", "4"], {1}, "usage error:"),
    (["characterize", "1", "3", "--t", "1"], {2}, "error:"),
    (["preimage", "2", "1"], {2}, "error:"),
    (["lift", "2", "1", "3", "--t", "2"], {2}, "error:"),
    (["zeta", "--l", "9", "--m", "3"], {2}, "error:"),
    (["xi", "--l", "2", "--m", "4"], {2}, "error:"),
    (["count-image", "--n", "11", "--t", "1"], {3}, "resource error:"),
    (["count-image", "--n", "9", "--t", "1", "--max-n", "13"], {3},
     "resource error:"),
    (["bijection", "{1}{1,2}"], {2}, "error:"),
    (["stats", "0", "1"], {1}, "parse error:"),
    # These three print a traceback today (an uncaught ValueError); they are
    # kept so that the failure shows until the CLI maps them to exit 1 or 2.
    (["verify", "theorem1", "--m", "4", "--n", "5"], {1, 2}, "error:"),
    (["verify", "prop2", "--m", "5", "--n-max", "3"], {1, 2}, "error:"),
    (["verify", "theorem2", "--m", "2"], {1, 2}, "error:"),
)


def fmt(p, compact: bool = False) -> str:
    if compact and 0 < len(p) <= 9 and max(p) <= 9:
        return "".join(map(str, p))
    return " ".join(map(str, p))


def fmt_set(values) -> str:
    return " ".join(map(str, sorted(values))) if values else "-"


def fmt_blocks(blocks) -> str:
    return "".join("{" + ",".join(map(str, sorted(b))) + "}"
                   for b in sorted(blocks, key=max))


def perm_arg(rng: random.Random, p: tuple) -> list[str]:
    """A permutation as the CLI takes it: contiguous digits or spaced."""
    if max(p, default=0) <= 9 and rng.random() < 0.5:
        return [fmt(p, compact=True)]
    return [str(v) for v in p]


def run_subprocess(argv: list[str], env: dict) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _stdout_check(expected: str | Callable[[str], bool]):
    def check(result) -> tuple[int, int]:
        code, out, err = result
        if code != 0 or "Traceback" in err:
            return 0, 1
        return _verdict(expected(out) if callable(expected)
                        else out == expected)
    return check


def _error_check(codes: set, marker: str):
    def check(result) -> tuple[int, int]:
        code, out, err = result
        if "Traceback" in err:
            return 0, 1
        return _verdict(code in codes and marker in err and not out)
    return check


def _preimage_stdout(p: tuple, compact: bool):
    def good(out: str) -> bool:
        lines = out.splitlines()
        if len(lines) != 2:
            return False
        sigma = tuple(int(c) for c in (lines[0] if " " in lines[0]
                                       else " ".join(lines[0])).split())
        cert = (f"certificate: s(sigma) = {fmt(p, compact)}"
                f" | avoids-barred-3241 = yes"
                f" | lrmax(sigma) = {fmt_set(lr_maxima(sigma))}"
                f" | lrmax(pi) = {fmt_set(lr_maxima(p))}")
        return (lines[0] == fmt(sigma, compact) and s_rec(sigma) == p
                and avoids(sigma) and lr_maxima(sigma) == lr_maxima(p)
                and lines[1] == cert)
    return good


def _lift_stdout(p: tuple, t: int):
    def good(out: str) -> bool:
        lines = out.splitlines()
        if len(lines) != 2:
            return False
        sigma = tuple(int(v) for v in lines[0].split())
        cert = (f"certificate: s^{t}(sigma) = {fmt(p)}"
                f" | avoids-barred-3241 = yes")
        return (sorted(sigma) == list(range(1, len(p) + 1))
                and s_iter(sigma, t) == p and avoids(sigma)
                and lines[1] == cert)
    return good


def cli_commands(rng: random.Random) -> list[tuple]:
    """(argv, check, perms) for one session, in the order it is run."""
    levels = {n: image_levels(n, n) for n in range(3, 8)}
    cmds = []

    def ok(argv, expected, perms=0):
        cmds.append((argv, _stdout_check(expected), perms))

    for _ in range(CLI_PER_KIND):
        p, t = rand_perm(rng, rng.randint(3, 9)), rng.randint(1, 3)
        compact = rng.random() < 0.3
        ok(["sort", *perm_arg(rng, p), "--iterations", str(t)]
           + ["--compact"] * compact, fmt(s_iter(p, t), compact) + "\n")
    for _ in range(CLI_PER_KIND):
        p = rand_perm(rng, rng.randint(3, 7))
        lines = [f"{k} {v}" for k, v in machine_events(p)]
        ok(["trace", *perm_arg(rng, p)],
           "\n".join(lines + [f"output {fmt(s_rec(p))}"]) + "\n")
    for i in range(CLI_PER_KIND):
        p = rand_perm(rng, rng.randint(3, 9))
        if i % 4 == 3:      # a permutation of a set other than [n]
            p = tuple(3 * v - 1 for v in p)
        standard = sorted(p) == list(range(1, len(p) + 1))
        desc = {i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1]}
        ok(["stats"] + [str(v) for v in p],
           f"length: {len(p)}\ndescents: {fmt_set(desc)}\n"
           f"descent-tops: {fmt_set({p[i - 1] for i in desc})}\n"
           f"lr-maxima: {fmt_set(lr_maxima(p))}\n"
           f"tail-length: {tail_length(p) if standard else '-'}\n")
    for n, t in CLI_CHARACTERIZE:
        p = rand_perm(rng, n) if rng.random() < 0.5 else \
            padded(rand_avoider(rng, rng.randint(1, n)), n)
        rule = membership_rule(p, t)
        member = p in levels[n][t]
        perms = scanned(n, t, True) if rule == "oracle-fallback" else 0
        ok(["characterize", *perm_arg(rng, p), "--t", str(t)],
           f"{'yes' if member else 'no'} {rule}\n", perms)
    for _ in range(CLI_PER_KIND):
        n = rng.randint(3, 9)
        p = padded(rand_avoider(rng, rng.randint(1, n - 1)), n)
        compact = rng.random() < 0.3
        ok(["preimage", *perm_arg(rng, p)] + ["--compact"] * compact,
           _preimage_stdout(p, compact))
    for _ in range(CLI_PER_KIND):
        n = rng.randint(3, 9)
        p = padded(rand_avoider(rng, rng.randint(1, n - 1)), n)
        t = rng.randint(0, tail_length(p))
        flag = ["--t", str(t)] if rng.random() < 0.7 else []
        ok(["lift", *perm_arg(rng, p), *flag],
           _lift_stdout(p, t if flag else tail_length(p)))
    for _ in range(CLI_PER_KIND):
        m = rng.randint(3, 6)
        ell = rng.randint(3, m)
        ok(["zeta", "--l", str(ell), "--m", str(m)], fmt(zeta(ell, m)) + "\n")
        ok(["xi", "--l", str(ell), "--m", str(m)], fmt(xi(ell, m)) + "\n")
    for _ in range(CLI_PER_KIND):
        blocks = rand_blocks(rng, rng.randint(1, 9))
        p = callan_perm(blocks)
        ok(["bijection", *perm_arg(rng, p)], fmt_blocks(blocks) + "\n")
        ok(["bijection", fmt_blocks(blocks)], fmt(p) + "\n")
    for n, t in CLI_COUNT_IMAGE:
        ok(["count-image", "--n", str(n), "--t", str(t)],
           f"{len(levels[n][t])}\n", scanned(n, t, False))
    for m, n in CLI_THEOREM1:
        b = len(levels[n][n - m])
        ok(["verify", "theorem1", "--m", str(m), "--n", str(n)],
           f"PASS theorem1 m={m} n={n} set_equal=True "
           f"expected={b} observed={b}\n", scanned(n, n - m, True))
    for argv, codes, marker in CLI_ERRORS:
        cmds.append((argv, _error_check(codes, marker), 0))
    rng.shuffle(cmds)
    return cmds


def cli_session(rng: random.Random, mods, env: dict | None) -> list[Op]:
    """Subprocess calls when `env` is given, else in-process `cli.run`."""
    ops = []
    for argv, check, perms in cli_commands(rng):
        if env is None:
            call = (lambda argv=argv: run_in_process(mods.cli, argv))
        else:
            call = (lambda argv=argv: run_subprocess(argv, env))
        ops.append(Op(argv[0], call, check, perms=perms))
    return ops


BUILDERS = {"image-scan": image_scan, "verify-grid": verify_grid,
            "perm-queries": perm_queries}
