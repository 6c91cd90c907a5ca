"""Exact images of the iterated stack-sorting map over S_n, the counts of
t-stack-sortable permutations, and the verification suites built on them.

Everything here is exact integer arithmetic, and no engine sorts all n!
permutations.  One engine answers both questions: every level is a dict
mapping a byte-packed permutation (one byte per entry) to its number of
preimages under s^t.  One join builds s^t(S_n), t = 1 or 2, from the
levels of smaller sizes over the left value sets L of L n R.  It peels
the top p = min(t-1, |L|) values off L: with p = 0, s(L n R) =
s(L) s(R) n; with p = 1 and m = max L, s^2(L n R) = s(A') s(m B) n, where
A' is s(L) less its final m and B = s(R), so s^2(S_n) comes from s^2 of
the left part and the entries s(m B), and s(S_n) itself is never built
for it.  For t >= 3 the single sorting pass is then applied t-2 more
times.  Weights multiply within a join and add where two preimages meet,
so the image is the set of keys and the t-stack-sortable count is the
weight of the identity; for t = 1, 2 it sums only the splits that reach
the identity, so s^t(S_n) is not built.  The levels are tiny next to n!
(|s(S_9)| = 11033 and |s^2(S_9)| = 1081 against 362880).  The default
bound is n <= 10; 11 and 12 are allowed behind an explicit `max_n` with
the hard cap at 12.  Every image is built in the calling process.

A `_Store` holds the levels, the `_sorted_after` rows and the later
passes, each built at most once and kept until the store is dropped.
`verify_all`, `verify_prop2` and `explore_open` share one store across
every image they ask for: the outermost of them opens it and drops it on
return.  Any other call builds its own store and drops it on return, so
no level outlives the call that asked for it.  The avoiders of the
barred pattern are counted by their generating tree, so no production
path scans S_n; only `_predicted_image` filters S_{n-t}.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import time
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Sequence

from .constructions import zeta
from .errors import (InvalidPermutationError, PreconditionError,
                     ResourceBoundError)
from .patterns import descent_tops_are_lr_maxima
from .perm import Perm, identity, is_standard, tail_length
from .stacksort import stack_sort, stack_sort_iterate

DEFAULT_MAX_N = 10
HARD_MAX_N = 12
KEEP_ALL_MAX_N = 9  # all of S_10 would take about 0.5 GB


def _resolve_bound(max_n: int | None) -> int:
    bound = DEFAULT_MAX_N if max_n is None else max_n
    if bound > HARD_MAX_N:
        raise ResourceBoundError(
            f"enumeration bound {bound} exceeds the hard cap {HARD_MAX_N}")
    return bound


def _require_within(n: int, max_n: int | None) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    bound = _resolve_bound(max_n)
    if n > bound:
        raise ResourceBoundError(
            f"n = {n} exceeds the enumeration bound {bound} "
            f"(raise max_n; hard cap {HARD_MAX_N})")


# ---------------------------------------------------------------------------
# Bell numbers

def bell_numbers(k: int) -> list[int]:
    """B_0..B_k by the Bell triangle, exact ints."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    values = [1]
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        values.append(row[0])
    return values


def bell(k: int) -> int:
    """The k-th Bell number."""
    return bell_numbers(k)[-1]


def load_bell_fixture() -> list[int]:
    """Bell numbers from the bundled OEIS A000110 snapshot (one value per
    line, B_0 first)."""
    text = resources.files("stacksortlab").joinpath("data/a000110.txt").read_text()
    return [int(line) for line in text.split() if line]


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1), exactly."""
    return math.comb(2 * n, n) // (n + 1)


def west_zeilberger_count(n: int) -> int:
    """2 C(3n, n) / ((n+1)(2n+1)): the closed-form count of permutations in
    S_n sorted by two passes, for n >= 1 (at n = 0 it reads 2, not 1)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    num = 2 * math.comb(3 * n, n)
    den = (n + 1) * (2 * n + 1)
    q, rem = divmod(num, den)
    assert rem == 0, (n, num, den)
    return q


# ---------------------------------------------------------------------------
# Image enumeration

@dataclass(frozen=True)
class ImageReport:
    """Exact result of enumerating the image of the t-fold sorting map over
    S_n.  `elements` is retained only on request; `count` always equals the
    deduplicated image size."""

    n: int
    t: int
    count: int
    elements: frozenset[Perm] | None
    wall_time: float

    def as_record(self) -> dict:
        rec: dict = {
            "n": self.n, "t": self.t, "count": self.count,
            "elements": None, "wall_time": self.wall_time,
        }
        if self.elements is not None:
            rec["elements"] = [" ".join(map(str, p)) for p in sorted(self.elements)]
        return rec


@dataclass(frozen=True)
class VerificationReport:
    """One executable claim checked by exact enumeration.  `passed` holds
    exactly when expected == observed (and every auxiliary set-level check
    listed in `parameters` succeeded)."""

    claim: str
    parameters: dict
    expected: int
    observed: int
    passed: bool

    def as_record(self) -> dict:
        return {
            "claim": self.claim, "parameters": dict(self.parameters),
            "expected": self.expected, "observed": self.observed,
            "pass": self.passed,
        }


def _standard_perms(n: int) -> Iterator[Perm]:
    return itertools.permutations(range(1, n + 1))


def _relabel_table(values: Sequence[int]) -> bytes:
    """`bytes.translate` table sending i to values[i-1] for i = 1..len(values)
    and fixing every other byte."""
    return bytes.maketrans(bytes(range(1, len(values) + 1)), bytes(values))


def _join(levels: list[dict[bytes, int]],
          after: list[list[dict[bytes, int]]],
          k: int, t: int) -> dict[bytes, int]:
    """s^t(S_k) for t = 1 or 2, each element mapped to its number of
    preimages under s^t, joined over the left value sets L, subsets of
    {1..k-1}, of L k R.  `levels[j]` is s^t(S_j) for j < k; `after[j]` is
    `_sorted_after` of s(S_j) for j <= k-2 (read only when t = 2).

    The join peels the top p = min(t-1, |L|) values off L; `kept` is the
    rest of L.  Every member of s^t(S_|L|) ends in its top p values, so
    deleting them (`peeled`) drops its last p entries.  With p = 0,
    s(L k R) = s(L) s(R) k: each member of s^t(S_|L|) relabelled onto L is
    followed by each member of s^t(S_|R|) relabelled onto R.  With p = 1
    and m = max L, A = s(L) ends in m, and once the second pass has read A
    its stack holds m alone, so s^2(L k R) = s(A') s(m B) k with A' = A
    less m and B = s(R), and s(A') m is s^2(L).  So each member of
    s^2(S_|L|) less its last entry, relabelled onto `kept`, is followed by
    each s(m B) from `after`, relabelled onto R + {m}.  Either way k comes
    last.  The preimages with a fixed L pair one preimage of each factor,
    so weights multiply; different L give disjoint preimages, so their
    weights add where they reach the same element.
    """
    out: dict[bytes, int] = {}
    get = out.get
    top = bytes([k])
    for a in range(k):
        p = min(t - 1, a)
        peeled = bytes(range(a - p + 1, a + 1))
        lefts = levels[a].items()
        for left in itertools.combinations(range(1, k), a):
            kept = left[:a - p]
            rest = tuple(v for v in range(1, k) if v not in kept)
            lt, rt = _relabel_table(kept), _relabel_table(rest)
            factor = (after[len(rest) - 1][rest.index(left[-1])] if p
                      else levels[len(rest)])
            rights = [(y.translate(rt) + top, wy) for y, wy in factor.items()]
            for x, wx in lefts:
                x = x.translate(lt, peeled)  # drops the last p entries
                for y, wy in rights:
                    key = x + y
                    out[key] = get(key, 0) + wx * wy
    return out


def _sorted_after(level: dict[bytes, int], j: int) -> list[dict[bytes, int]]:
    """`row[r-1]` maps s(r b), b in s(S_j) relabelled onto {1..j+1} minus
    r, to the summed fertility of the b that reach it, for r = 1..j+1: the
    right-hand factors of the join for t = 2, standardized.  `level` is
    s(S_j) with fertilities.

    One sort per b serves every r: r leaves the stack when the first entry
    of b above it arrives, which is when the entries before that one are
    flushed anyway, so s(r b) is s(b) with r put in at that entry's index.
    """
    ranks = range(1, j + 2)
    skips = [_relabel_table([v for v in ranks if v != r]) for r in ranks]
    heads = [bytes([r]) for r in ranks]
    row: list[dict[bytes, int]] = [{} for _ in ranks]
    for b, w in level.items():
        sorted_b = bytes(stack_sort(b))
        i = 0
        for r, skip, head, out in zip(ranks, skips, heads, row):
            while i < j and b[i] < r:  # b[i] >= r is relabelled above r
                i += 1
            x = sorted_b.translate(skip)
            key = x[:i] + head + x[i:]
            out[key] = out.get(key, 0) + w
    return row


class _Store:
    """Weighted closure levels, each built at most once and held until the
    store is dropped: `levels[t][k]` is s^t(S_k) for t = 1 or 2, grown one
    size at a time by `_join`; `after[j]` is `_sorted_after` of s(S_j);
    `passes[n][i]` is s^{i+2}(S_n), one sorting pass over the entry before
    it, grown as far as asked but never past the first level that holds
    the identity alone.
    """

    def __init__(self) -> None:
        self.levels: dict[int, list[dict[bytes, int]]] = {
            1: [{b"": 1}], 2: [{b"": 1}]}
        self.after: list[list[dict[bytes, int]]] = []
        self.passes: dict[int, list[dict[bytes, int]]] = {}

    def image(self, n: int, t: int) -> dict[bytes, int]:
        """s^t(S_n) for t >= 1, each element mapped to its number of
        preimages under s^t."""
        if t <= 2:
            return self._joined(n, t)
        chain = self.passes.setdefault(n, [self._joined(n, 2)])
        # a pass fixes the identity alone, so no chain grows past it
        while len(chain) < t - 1 and len(chain[-1]) > 1:
            nxt: dict[bytes, int] = {}
            get = nxt.get
            for q, w in chain[-1].items():
                key = bytes(stack_sort(q))
                nxt[key] = get(key, 0) + w
            chain.append(nxt)
        return chain[min(t - 2, len(chain) - 1)]

    def rows(self, n: int) -> list[list[dict[bytes, int]]]:
        """`after[j]` for every j < n, each built once: the rows that the
        join of s^2(S_{n+1}) reads."""
        while len(self.after) < n:
            j = len(self.after)
            self.after.append(_sorted_after(self._joined(j, 1), j))
        return self.after

    def _joined(self, n: int, t: int) -> dict[bytes, int]:
        levels = self.levels[t]
        if t == 2 and len(levels) <= n:
            self.rows(n - 1)
        while len(levels) <= n:
            levels.append(_join(levels, self.after, len(levels), t))
        return levels[n]


_STORE: contextvars.ContextVar[_Store | None] = contextvars.ContextVar(
    "_STORE", default=None)


def _store() -> _Store:
    """The store of the enclosing `_sharing_levels` block, else a fresh one."""
    return _STORE.get() or _Store()


@contextlib.contextmanager
def _sharing_levels() -> Iterator[None]:
    """Share one `_Store` across every image built inside the block; a
    nested block keeps the store of the outermost one."""
    token = _STORE.set(_store())
    try:
        yield
    finally:
        _STORE.reset(token)


def _image(n: int, t: int) -> dict[bytes, int]:
    """s^t(S_n), byte-packed, each element mapped to its number of
    preimages under s^t, for t >= 1: the join for u = min(t, 2), then t-u
    passes that add the weights of elements sorted together.  Read from
    the shared store inside `_sharing_levels`, else from a fresh one."""
    return _store().image(n, t)


def _brute_image(n: int, t: int) -> frozenset[Perm]:
    """s^t(S_n) from the definition: t passes over every permutation of
    [n].  The test oracle for `image_of_iterate`; no production path
    calls it."""
    return frozenset(stack_sort_iterate(p, t) for p in _standard_perms(n))


def image_of_iterate(
    n: int,
    t: int,
    keep_elements: bool = False,
    shards: int = 1,
    max_n: int | None = None,
) -> ImageReport:
    """Exact image of the t-fold sorting map over all n! permutations.

    s^u(S_n), u = min(t, 2), is joined from the smaller images of the
    same u (`_join`, which peels p = min(u-1, |L|) values off each left
    value set L), then the sorting pass is applied t-u more times, all in
    the calling process.  Keeping the elements of the 0-fold image (all
    of S_n) is refused above n = `KEEP_ALL_MAX_N`, whatever `max_n` says.
    `shards` must be >= 1 and is otherwise ignored; ROADMAP item 6
    removes it together with the benchmark plans that pass it.
    """
    _require_within(n, max_n)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if t == 0 and keep_elements and n > KEEP_ALL_MAX_N:
        raise ResourceBoundError(
            f"keeping the {n}! elements of S_n (t = 0) is capped at "
            f"n <= {KEEP_ALL_MAX_N}; the count alone is allowed")
    start = time.perf_counter()
    if t == 0:
        # the 0-fold image is all of S_n; nothing to build for a count
        elements = frozenset(_standard_perms(n)) if keep_elements else None
        return ImageReport(n=n, t=t, count=math.factorial(n),
                           elements=elements, wall_time=time.perf_counter() - start)
    image = _image(n, t)
    elements = frozenset(tuple(code) for code in image) if keep_elements else None
    return ImageReport(n=n, t=t, count=len(image), elements=elements,
                       wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Membership characterization

def characterize_membership_rule(
    p: Sequence[int], t: int, max_n: int | None = None,
) -> tuple[bool, str]:
    """Decide membership of p in the image of the t-fold map over S_n and
    report which rule decided.

    With m = n - t: for n >= 2m-2 the tail-length/avoidance test decides
    ("thm1"); for n = 2m-3 the same test plus the zeta family decides
    ("thm2-characterized" / "thm2-zeta"); otherwise the image engine within
    the enumeration bound ("oracle-fallback", with the exact shortcuts t = 0,
    image = everything, and t >= n-1, image = the identity alone).
    """
    p = tuple(p)
    if not is_standard(p):
        raise InvalidPermutationError(
            f"membership needs a permutation of [n], got {p}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = len(p)
    m = n - t
    if m >= 1 and n >= 2 * m - 2:
        ok = tail_length(p) >= t and descent_tops_are_lr_maxima(p)
        return ok, "thm1"
    if m >= 3 and n == 2 * m - 3:
        if tail_length(p) >= t and descent_tops_are_lr_maxima(p):
            return True, "thm2-characterized"
        if any(p == zeta(ell, m) for ell in range(3, m + 1)):
            return True, "thm2-zeta"
        return False, "thm2-characterized"
    if t == 0:
        return True, "oracle-fallback"
    if t >= n - 1:
        return p == identity(n), "oracle-fallback"
    if n > _resolve_bound(max_n):
        raise ResourceBoundError(
            f"membership for n = {n}, t = {t} is outside the characterized "
            f"regimes and over the enumeration bound: undecidable at this "
            f"scale")
    report = image_of_iterate(n, t, keep_elements=True, max_n=max_n)
    assert report.elements is not None
    return p in report.elements, "oracle-fallback"


# ---------------------------------------------------------------------------
# Verification suites

def _predicted_image(n: int, t: int) -> frozenset[Perm]:
    """The characterized set {p in S_n : tail length >= t, avoider}, built
    as every avoider q in S_{n-t} followed by the fixed tail n-t+1..n."""
    fixed_tail = tuple(range(n - t + 1, n + 1))
    # appending larger increasing entries adds no descent top and keeps the
    # earlier left-to-right maxima, so q + tail avoids exactly when q does
    return frozenset(q + fixed_tail for q in _standard_perms(n - t)
                     if descent_tops_are_lr_maxima(q))


def verify_theorem1(m: int, n: int,
                    max_n: int | None = None) -> VerificationReport:
    """Check |image of the (n-m)-fold map over S_n| = B_m for n >= 2m-2,
    including element-by-element equality with the characterized set."""
    if m < 1 or n < m or n < 2 * m - 2:
        raise PreconditionError(
            f"needs 1 <= m <= n and n >= 2m-2, got m={m}, n={n}")
    report = image_of_iterate(n, n - m, keep_elements=True, max_n=max_n)
    assert report.elements is not None
    predicted = _predicted_image(n, n - m)
    expected = bell(m)
    observed = report.count
    set_equal = report.elements == predicted
    return VerificationReport(
        claim="theorem1",
        parameters={"m": m, "n": n, "set_equal": set_equal},
        expected=expected, observed=observed,
        passed=(expected == observed) and set_equal)


def verify_theorem2(m: int, max_n: int | None = None) -> VerificationReport:
    """Check |image of the (m-3)-fold map over S_{2m-3}| = B_m + m - 2,
    with the image equal to the characterized set plus exactly the zeta
    family (which are precisely the image elements containing the barred
    pattern)."""
    if m < 3:
        raise PreconditionError(f"needs m >= 3, got m={m}")
    n = 2 * m - 3
    report = image_of_iterate(n, m - 3, keep_elements=True, max_n=max_n)
    assert report.elements is not None
    characterized = _predicted_image(n, m - 3)
    zetas = frozenset(zeta(ell, m) for ell in range(3, m + 1))
    set_equal = report.elements == characterized | zetas
    containers = frozenset(p for p in report.elements
                           if not descent_tops_are_lr_maxima(p))
    zeta_exact = containers == zetas
    expected = bell(m) + m - 2
    observed = report.count
    return VerificationReport(
        claim="theorem2",
        parameters={"m": m, "n": n, "set_equal": set_equal,
                    "zeta_exact": zeta_exact},
        expected=expected, observed=observed,
        passed=(expected == observed) and set_equal and zeta_exact)


def verify_prop2(m: int, n_max: int,
                 max_n: int | None = None) -> VerificationReport:
    """Check that |image of the (n-m)-fold map over S_n| is nonincreasing
    in n, and at least B_m + m - 2 for m <= n <= 2m-3.  expected/observed
    are the number of checks made/passed; the count chain rides along in
    parameters."""
    if m < 1 or n_max < m:
        raise PreconditionError(
            f"needs 1 <= m <= n_max, got m={m}, n_max={n_max}")
    with _sharing_levels():
        counts = [image_of_iterate(n, n - m, max_n=max_n).count
                  for n in range(m, n_max + 1)]
    checks = 0
    passed = 0
    for i in range(len(counts) - 1):
        checks += 1
        passed += counts[i] >= counts[i + 1]
    floor = bell(m) + m - 2
    for i, n in enumerate(range(m, n_max + 1)):
        if m <= n <= 2 * m - 3:
            checks += 1
            passed += counts[i] >= floor
    return VerificationReport(
        claim="prop2",
        parameters={"m": m, "n_max": n_max, "counts": counts},
        expected=checks, observed=passed, passed=(checks == passed))


def count_avoiders(n: int, max_n: int | None = None) -> int:
    """|{p in S_n avoiding the barred pattern}|, i.e. with every descent
    top a left-to-right maximum, by the generating tree of the avoiders.

    Every prefix of an avoider, standardized, is an avoider, so each
    avoider of [k+1] is one of [k] with a new last value v in 1..k+1 and
    the entries >= v moved up by one.  The new entry is allowed iff the
    old last entry l was a left-to-right maximum or v > l, and it is a
    left-to-right maximum iff v = k+1.  So the count runs over the states
    (l, is l a left-to-right maximum) in O(n^3) steps.
    """
    _require_within(n, max_n)
    # the empty permutation ends in a virtual 0 that is a maximum
    ends: dict[tuple[int, bool], int] = {(0, True): 1}
    for k in range(n):
        nxt: dict[tuple[int, bool], int] = {}
        for (last, lr), count in ends.items():
            for v in range(1, k + 2):
                if lr or v > last:
                    key = (v, v == k + 1)
                    nxt[key] = nxt.get(key, 0) + count
        ends = nxt
    return sum(ends.values())


def count_t_stack_sortable(n: int, t: int, max_n: int | None = None) -> int:
    """Count of p in S_n fully sorted by t passes, without scanning S_n.

    The count W_t(n) is the weight of the identity in s^t(S_n).  For
    t <= 2 it sums only the splits L k R of `_join` that reach the
    identity.  L empty gives s^t(R) k; |L| = a >= 1 needs L less its top
    t-1 values to be {1..a-t+1}.  So W_t(k) = W_t(k-1) +
    sum_{a=1}^{k-1} W_t(a) F(k-1-a): for t = 1, F = W_1 (the empty split
    is W_1(0) W_1(k-1)); for t = 2, F(j) sums the identity's weight over
    `after[j]`.
    """
    _require_within(n, max_n)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1
    if t >= 3:
        return _image(n, t)[bytes(range(1, n + 1))]
    weights = [1]
    follow = weights
    if t == 2:
        after = _store().rows(n - 1)
        follow = [sum(out.get(bytes(range(1, j + 2)), 0) for out in after[j])
                  for j in range(n - 1)]
    for k in range(1, n + 1):
        weights.append(weights[k - 1] + sum(weights[a] * follow[k - 1 - a]
                                            for a in range(1, k)))
    return weights[n]


def verify_thm3_count(n: int, max_n: int | None = None) -> VerificationReport:
    """Check that barred-pattern avoiders of [n] are counted by B_n."""
    observed = count_avoiders(n, max_n=max_n)
    expected = bell(n)
    return VerificationReport(
        claim="thm3_count", parameters={"n": n},
        expected=expected, observed=observed, passed=expected == observed)


def verify_catalan(n: int, max_n: int | None = None) -> VerificationReport:
    """Check the 1-pass-sortable count against the Catalan number."""
    observed = count_t_stack_sortable(n, 1, max_n=max_n)
    expected = catalan(n)
    return VerificationReport(
        claim="catalan", parameters={"n": n},
        expected=expected, observed=observed, passed=expected == observed)


def verify_west_zeilberger(n: int, max_n: int | None = None) -> VerificationReport:
    """Check the 2-pass-sortable count against the closed formula."""
    if n < 1:
        raise PreconditionError(f"needs n >= 1, got n={n}")
    observed = count_t_stack_sortable(n, 2, max_n=max_n)
    expected = west_zeilberger_count(n)
    return VerificationReport(
        claim="west_zeilberger", parameters={"n": n},
        expected=expected, observed=observed, passed=expected == observed)


def verify_all(max_n: int, shards: int = 1) -> list[VerificationReport]:
    """Every verification claim instantiated over all parameters that fit
    within the bound.  `shards` must be >= 1 and is otherwise ignored;
    ROADMAP item 6 removes it together with the benchmark plans that
    pass it."""
    _resolve_bound(max_n)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    with _sharing_levels():
        reports: list[VerificationReport] = []
        m = 1
        while max(m, 2 * m - 2) <= max_n:
            for n in range(max(m, 2 * m - 2), max_n + 1):
                reports.append(verify_theorem1(m, n, max_n=max_n))
            m += 1
        m = 3
        while 2 * m - 3 <= max_n:
            reports.append(verify_theorem2(m, max_n=max_n))
            m += 1
        for m in range(1, min(4, max_n) + 1):
            reports.append(verify_prop2(m, max_n, max_n=max_n))
        for n in range(1, max_n + 1):
            reports.append(verify_thm3_count(n, max_n=max_n))
        for n in range(1, max_n + 1):
            reports.append(verify_catalan(n, max_n=max_n))
        for n in range(1, max_n + 1):
            reports.append(verify_west_zeilberger(n, max_n=max_n))
        return reports


def explore_open(m: int, max_n: int | None = None) -> list[ImageReport]:
    """Image sizes of the (n-m)-fold map for m <= n <= 2m-2: the window the
    characterizations leave open in the middle.

    Endpoints are pinned (m! and B_m, with the n = 2m-3 entry at
    B_m + m - 2); interior values are reported as computed, never asserted
    against a closed form.
    """
    if m < 1:
        raise PreconditionError(f"m must be positive, got {m}")
    _require_within(max(m, 2 * m - 2), max_n)
    with _sharing_levels():
        rows = [image_of_iterate(n, n - m, max_n=max_n)
                for n in range(m, 2 * m - 1)]
    if rows:
        if rows[0].count != math.factorial(m):
            raise AssertionError(
                f"first explore entry must be m! = {math.factorial(m)}, "
                f"got {rows[0].count}")
        if rows[-1].count != bell(m):
            raise AssertionError(
                f"last explore entry must be B_m = {bell(m)}, "
                f"got {rows[-1].count}")
        if m >= 3 and rows[m - 3].count != bell(m) + m - 2:
            raise AssertionError(
                f"entry at n = 2m-3 must be B_m + m - 2 = {bell(m) + m - 2}, "
                f"got {rows[m - 3].count}")
    return rows
