"""Exact images of the iterated stack-sorting map over S_n, the counts of
t-stack-sortable permutations, and the verification suites built on them.

Everything here is exact integer arithmetic, and no engine sorts all n!
permutations.  Each question has its own engine; both work over the
splits L n R, where a left-to-right maximum empties the stack, from
levels of smaller sizes.  Permutations are byte-packed, one byte per
entry.

- Images are joined.  `_split_join` builds s(S_n), the sorted
  permutations, as a list that forms each element once, from its
  canonical split: s(L n R) = s(L) s(R) n, and of the L that give one
  element only the largest is kept, which a threshold statistic phi of
  the right factor decides.  Each element carries (phi, sigma), which
  two O(1) rules read off its factors (`_split_pairs`) without forming
  it, so a t = 1 count sums binomials over the phi of the levels up to
  n-2 and forms no element above s(S_{n-4}).
  `_peel_join` builds s^t(S_n) for t >= 2 as a set in one t-fold join:
  with |L| >= t it peels the top t-1 values off L, so the element is
  s^t(L) less its last t-1 entries, then one element of a union of
  nested-insertion tables, then n.  The L with |L| < t, and L = [n-1],
  give s^t(S_{n-1}) n, whose elements the other splits form again for
  n >= t+2 (checked, not proved), so the join skips them and reads no
  level above n-2.  Both factors depend only on the kept part K of L,
  so the join forms the products of each size of K once and relabels
  them onto every K that reads them in one `set.update`, one
  `bytes.translate` per product; the cost follows m = n - t.  A count
  at t >= 2 joins only the elements of s^t(S_n) and s^t(S_{n-1}) that
  start with a descent and reads the rest off the first entries of
  s^t(S_{n-2}) (`_Store.count`), so it holds no level above n-2.
- Counts are weights.  `count_t_stack_sortable` sums, for t = 1 and
  every t >= 3, only the splits that s^t sends to the identity, by the
  same peel, so s^t(S_n) is never built; each t keeps one row of these
  sums on the store (`_Store.sortable_count`).  Its factor for R is
  read off weighted nested insertions, which map each element to its
  number of R and start from s(S_r) with preimage weights (`_join`).
  The factor that asks for the identity is read one level lower, off
  the elements that one pass sorts and their cut points.  A two-pass
  count builds no level: a polynomial DP over the number of cut points
  of s(beta) (`_Store.cut_counts`) gives it.

Both engines grow the nested insertions one level at a time (`_Store`);
the image engine's start from the list of s(S_r) the store already
holds, so a store holds each s(S_r) once.

The levels are tiny next to n! (|s(S_9)| = 11033 and |s^2(S_9)| = 1081
against 362880).  The default bound is n <= 10; 11 and 12 are allowed
behind an explicit `max_n` with the hard cap at 12.  A kept image holds
at most `KEEP_ALL_MAX_N`! = 9! elements.

A `_Store` holds both engines' levels and every count factor H(p, r, e)
it has found, each built at most once and kept until the store is
dropped.  `verify_all`, each image claim (`_image_claim`) and the
windows that `verify_prop2` and `explore_open` read (`_window`) share
one store across every level and factor they ask for: the outermost of
them opens it and drops it on return.  Any other call builds its own
store and drops it on return, so no level and no factor outlives the
call that asked for it.  The relabel, shift, raise and skip tables
(`_kept_table`, `_kept_tables`, `_up`, `_raise`, `_skips`) and the
split join's (phi, sigma) rows (`_split_stats`) depend only on sizes,
so they are per-process constants, never levels: at most 2^(k-1) relabel
tables for each size k, which `_kept_tables` groups into one tuple per
(k, |K|, bound on max K), the only way the joins read them;
`_raise(v)` moves the entries >= v up by one, for the nested
insertions (`_skips`) and the avoiders' generating tree alike.  So are
the Bell numbers (`bell`).  The avoiders of the barred pattern are
counted and listed by their generating tree, so no production path
scans S_n.

Each claim builds its report in one place: `_image_claim` for Theorems
1 and 2, `_count_claim` for the three counts.  An image claim compares
the level as the store holds it, a set of packed elements (at t = 1 a
set of the held list), with a packed prediction (`_predicted_image`),
and counts that same level.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import itertools
import math
import time
from typing import Collection, NamedTuple, Sequence

from .errors import (InvalidPermutationError, PreconditionError,
                     ResourceBoundError)
from .perm import (Perm, descent_tops_are_lr_maxima, identity, is_standard,
                   tail_length)
from .stacksort import _stack_pass, stack_sort_iterate

DEFAULT_MAX_N = 10
HARD_MAX_N = 12
# a kept image holds at most KEEP_ALL_MAX_N! elements: all of S_10 would
# take about 0.5 GB
KEEP_ALL_MAX_N = 9


def _resolve_bound(max_n: int | None) -> int:
    bound = DEFAULT_MAX_N if max_n is None else max_n
    if bound > HARD_MAX_N:
        raise ResourceBoundError(
            f"enumeration bound {bound} exceeds the hard cap {HARD_MAX_N}")
    return bound


def _require_keepable(n: int, t: int, count: int) -> None:
    """Refuse to keep the `count` elements of s^t(S_n) past the budget of
    KEEP_ALL_MAX_N! elements."""
    budget = math.factorial(KEEP_ALL_MAX_N)
    if count > budget:
        raise ResourceBoundError(
            f"keeping the {count} elements of s^{t}(S_{n}) is capped at "
            f"{KEEP_ALL_MAX_N}! = {budget}; the count alone is allowed")


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


@functools.cache
def bell(k: int) -> int:
    """The k-th Bell number, computed once per process for each k."""
    return bell_numbers(k)[-1]


def load_bell_fixture() -> list[int]:
    """Bell numbers from the bundled OEIS A000110 snapshot (one value per
    line, B_0 first)."""
    from importlib import resources
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

class ImageReport(NamedTuple):
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


class VerificationReport(NamedTuple):
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


@functools.cache
def _kept_table(k: int, kept: tuple[int, ...]) -> bytes:
    """The table sending 1..|kept| onto `kept`, a subset of [k-1], and
    |kept|+1..k-1 onto the rest of [k-1], fixing every other byte."""
    return bytes.maketrans(bytes(range(1, k)), bytes(kept) + bytes(
        v for v in range(1, k) if v not in kept))


@functools.cache
def _kept_tables(k: int, size: int, top: int) -> tuple[bytes, ...]:
    """The `_kept_table`s of every K, a subset of [top] with |K| = size:
    for size 0 the identity alone, and for size 1 the table of {g} at
    g-1.  Ordered by max K: in `itertools.combinations` order the peel
    join of s(S_9) measured about 2 % slower."""
    kept_sets = itertools.combinations(range(1, top + 1), size)
    return tuple(_kept_table(k, kept)
                 for kept in sorted(kept_sets, key=lambda kept: kept[-1:]))


@functools.cache
def _up(size: int) -> bytes:
    """The table adding `size` to every byte below 256 - size."""
    return bytes(range(size, 256)) + bytes(size)


@functools.cache
def _raise(v: int) -> bytes:
    """The table adding one to every byte from v up to 254, fixing the
    bytes below v."""
    return bytes(range(v)) + _up(1)[v:]


@functools.cache
def _split_stats(k: int, a: int, f: int) -> tuple[tuple[tuple, ...], ...]:
    """The (phi, sigma) of each element `_split_join` forms at size k from
    x in s(S_a) and y in s(S_{k-1-a}) with phi(y) = f: at
    [psi(x)][2 y_1 + sigma(y)], one pair per table of
    `_kept_tables(k, a, k - 1)` from C(f+a-1, a) on, the K with
    max K - a >= f, in that order.  Table K maps a to max K, psi to the
    psi-th smallest value of K and a + y_1 to Y_1; each (phi, sigma)
    pair is one object, so a level holds no pair of its own."""
    pairs = [((v, False), (v, True)) for v in range(k)]
    tables = _kept_tables(k, a, k - 1)[math.comb(f + a - 1, a):]
    return tuple(
        tuple(tuple(pairs[tb[y1 + a]][s] if tb[a] - a < y1
                    else pairs[tb[psi]][s and tb[a] != k - 1]
                    for tb in tables)
              for y1 in range(k - a) for s in (False, True))
        for psi in range(a + 1))


def _split_join(store: _Store, k: int) -> list[bytes]:
    """s(S_k) for k >= 3 as a list, each element formed once;
    `store.sets[1][j]` and `store.stats[j]` are s(S_j) and the
    (phi, sigma) of its elements for j <= k-2.

    s(L k R) = s(L) s(R) k, so an element is x (y + a) k relabelled by
    the table of K = L (`_kept_table`), x in s(S_a) and y in
    s(S_{k-1-a}), as in `_peel_join`.  Its canonical split is the one
    with the largest |K| = a in 1..k-2: L empty and L = [k-1] each give
    s(S_{k-1}) k, whose elements such K form again for k >= 3.  A
    product is canonical exactly when max K - a >= phi(y), a threshold
    of the right factor (`_split_pairs`), so the kept tables are a
    suffix of the max-K-ordered `_kept_tables(k, a, k - 1)`.  So each
    phi(y) forms the products of all x and those y once and sends them
    through its suffix of tables in one `list.extend`.  The threshold
    is checked level by level against `_peel_join` (ROADMAP item 3),
    not proved.
    """
    elements: list[bytes] = []
    top = bytes([k])
    for a in range(1, k - 1):
        up = _up(a)
        tables = _kept_tables(k, a, k - 1)
        lefts = store.sets[1][a]
        rights: dict[int, list[bytes]] = {}
        for y, (f, _) in zip(store.sets[1][k - 1 - a], store.stats[k - 1 - a]):
            rights.setdefault(f, []).append(y.translate(up) + top)
        for f, ys in rights.items():
            elements.extend(itertools.starmap(
                bytes.translate, itertools.product(
                    [x + y for x in lefts for y in ys],
                    tables[math.comb(f + a - 1, a):])))
    return elements


def _split_pairs(store: _Store, k: int) -> list[tuple]:
    """The (phi, sigma) of each element of s(S_k), k >= 3, in the order
    `_split_join` forms them, from the same levels up to k-2; no element
    of s(S_k) is formed.

    phi(y) is the threshold of `_split_join`, and sigma(y) says that y
    less its last entry lies in s(S_{|y|-1}).  Both follow from the
    factors of the canonical split, with Y_1 the first entry of y
    relabelled and psi(x) = a if sigma(x), else phi(x):

        phi = Y_1 if Y_1 > max K, else the psi(x)-th smallest value of K;
        sigma = sigma(y) and max K != k-1;

    from 1 -> (0, true) and 1 2 -> (1, true).  The rules are checked
    level by level against the definitions (ROADMAP item 3), not proved.
    The pairs of each phi(y) depend only on sizes, psi(x), y_1 and
    sigma(y) (`_split_stats`), so they are read, not computed, in one
    `list.extend`.
    """
    stats: list[tuple] = []
    for a in range(1, k - 1):
        psis = [a if s else f for f, s in store.stats[a]]
        rights: dict[int, list[int]] = {}
        for y, (f, s) in zip(store.sets[1][k - 1 - a], store.stats[k - 1 - a]):
            rights.setdefault(f, []).append(2 * y[0] + s)
        for f, codes in rights.items():
            rows = _split_stats(k, a, f)
            stats.extend(itertools.chain.from_iterable(
                [rows[psi][c] for psi in psis for c in codes]))
    return stats


def _peel_join(store: _Store, k: int, t: int,
               descents: bool = False) -> set[bytes]:
    """s^t(S_k) for t >= 1 as a set, joined over the kept sets K of the
    left value sets L of L k R; `store.sets[t][j]` is s^t(S_j) for
    t+1 <= j <= k-2, and no other level is read.  With `descents`, only
    the elements that start with a descent (`_Store.count`).  At t = 1
    it forms s(S_k) too, with repeats; the tests compare `_split_join`
    with it, and no production path calls it so.

    With p = t-1 and v_1 > ... > v_p the top p values of L, once |L| >= t
    the last p entries of s^t(L) are v_p ... v_1, and a left-to-right
    maximum empties the stack, so s^t(L k R) = strip_p(s^t(L)) T k with
    T = s(v_p ... s(v_1 s(R))).  The kept set K = L less its top p values
    fixes both factors' value sets: the first is s^t(S_|L|) less its last
    p entries, relabelled onto K, which for |K| = 1 is 1 alone, since
    s^t(S_t) is the identity; the second is the union U(r, p, q) of
    the lists of `store.nested(r, p)` above last rank q, relabelled onto
    the rest of [k-1], with r = |R| and q = max K - |K| the values of the
    rest below max K, which no v may take.  So the join loops over K, not
    over L.  The product for K is the one for [|K|], x (y + |K|) k
    (`_up`), relabelled by K's table (`_kept_table`), so each size's
    products are formed once, one block per last rank w of the right
    factor.  The block of rank w lies in U(r, p, q) for every q < w, that
    is for every K with max K <= w + |K| - 1, so each block goes through
    the tables of all those K (`_kept_tables`) in one `set.update`; an
    empty rank list is skipped.

    Every L with |L| < t together gives s^t(S_{k-1}) k, and so does
    L = [k-1] (K = [k-1-p], r = 0); the join forms neither.  For
    k <= t+1 that leaves no K, and the level is the identity alone.
    For k >= t+2 the K with 1 <= |K| <= k-1-t form every element of
    s^t(S_{k-1}) k again, so the join reads no level above k-2.  That
    is checked for k <= 12 (k <= 10 at t = 1; ROADMAP item 12), not
    proved: s^t(sigma) less its maximum need not be s^t of sigma less
    it (s(231) = 213, s(21) = 12).

    Relabelling onto K keeps order, so a product starts with a descent
    when its left factor does, or, for K = {g}, when g > y_1.  So with
    `descents` each size's lefts are filtered once, and the size-1
    products of each y_1 go through the tables of the g > y_1 alone, a
    suffix of their tuple, as in `_split_join`; a full level runs
    neither filter.
    """
    p = t - 1
    top = bytes([k])
    out = set() if descents or k > t + 1 else {bytes(range(1, k + 1))}
    for size in range(1, k - p - 1):
        lefts = ([x[:size] for x in store.sets[t][size + p]] if size > 1
                 else [b"\x01"])  # drops v_p ... v_1
        if descents and size > 1:
            lefts = [x for x in lefts if x[0] > x[1]]
        up = _up(size)
        for w, ys in enumerate(store.nested(k - 1 - size - p, p)):
            if not ys:
                continue
            rights = [y.translate(up) + top for y in ys]
            blocks: dict[int, list[bytes]] = {}
            if descents and size == 1:  # byte 0 of a right is y_1 + 1
                for y in rights:
                    blocks.setdefault(y[0] - 1, []).append(b"\x01" + y)
            else:
                blocks[0] = [x + y for x in lefts for y in rights]
            kept = _kept_tables(k, size, w + size - 1)
            for y1, block in blocks.items():
                out.update(itertools.starmap(
                    bytes.translate, itertools.product(block, kept[y1:])))
    return out


def _put_below(b: bytes,
               skips: tuple[tuple[int, bytes, bytes], ...]) -> list[bytes]:
    """s(r b) for each (r, skip, head) of `skips` (see `_skips`), with b
    relabelled onto {1..len(b)+1} minus r.

    One sort serves every r: r leaves the stack when the first entry of b
    above it arrives, which is when the entries before that one are
    flushed anyway, so s(r b) is s(b) with r put in at that entry's index.
    """
    sorted_b = bytes(_stack_pass(b))
    out = []
    i = 0
    j = len(b)
    for r, skip, head in skips:
        while i < j and b[i] < r:  # b[i] >= r is relabelled above r
            i += 1
        x = sorted_b.translate(skip)
        out.append(x[:i] + head + x[i:])
    return out


@functools.cache
def _skips(w: int) -> tuple[tuple[int, bytes, bytes], ...]:
    """For r = 1..w: r, the table relabelling an entry onto the positive
    integers minus r (`_raise`), and r packed; built once per process."""
    return tuple((r, _raise(r), bytes([r])) for r in range(1, w + 1))


def _nest(level: list[Collection[bytes]]) -> list[list[bytes]]:
    """The next level of the nested insertions into s(S_r), r = len(level)
    - 2, from the level below it given as in `_Store.unions`.

    The children of a table whose last rank is w have the last ranks
    1..w, and an element's child of each rank does not depend on the
    table.  So each distinct element c of largest last rank w gives its
    children of ranks 1..w with one `_put_below`, and each child keeps
    the largest rank it is given.
    """
    best: dict[bytes, int] = {}
    get = best.get
    for w in range(len(level) - 1, 0, -1):
        for c in level[w]:
            for rank, x in enumerate(_put_below(c, _skips(w)), 1):
                if get(x, 0) < rank:
                    best[x] = rank
    out: list[list[bytes]] = [[] for _ in level]
    for x, w in best.items():
        out[w].append(x)
    return out


def _weigh(level: list[dict[bytes, int]]) -> list[dict[bytes, int]]:
    """The next level of the weighted nested insertions into s(S_r), r =
    len(level) - 2, from the level below it given as in `_Store.weights`:
    as `_nest`, but the tables of one last rank are summed, not merged, so
    each (element, last rank) entry gives its children one `_put_below`
    and adds its weight to each."""
    out: list[dict[bytes, int]] = [{} for _ in level]
    for w in range(len(level) - 1, 0, -1):
        for c, n in level[w].items():
            for child, x in zip(out[1:], _put_below(c, _skips(w))):
                child[x] = child.get(x, 0) + n
    return out


def _join(levels: list[dict[bytes, int]], k: int) -> dict[bytes, int]:
    """s(S_k), each element mapped to its number of preimages under s,
    joined over the left value sets L, subsets of {1..k-1}, of L k R;
    `levels[j]` is s(S_j) for j < k.

    A left-to-right maximum empties the stack, so s(L k R) = s(L) s(R) k.
    The preimages with a fixed L pair one preimage of each factor, so
    weights multiply; different L give disjoint preimages, so their
    weights add where they reach the same element.  As in `_peel_join`,
    the product for L is the one for [|L|], x (y + |L|) k, relabelled by
    L's table, so each size's weighted products are formed once and sent
    through the tables of every L of that size (`_kept_tables`).
    """
    out: dict[bytes, int] = {}
    get = out.get
    top = bytes([k])
    for a in range(k):
        up = _up(a)
        products = [(x + y.translate(up) + top, wx * wy)
                    for x, wx in levels[a].items()
                    for y, wy in levels[k - 1 - a].items()]
        for table in _kept_tables(k, a, k - 1):
            for xy, w in products:
                key = xy.translate(table)
                out[key] = get(key, 0) + w
    return out


class _Store:
    """Levels, each built at most once and held until the store is
    dropped.  T(r, ranks) is the set of s(v_p ... s(v_1 s(R))) over s(R)
    in s(S_r), standardized, where v_1 > ... > v_p have the ranks `ranks`
    among R and the v's; its last rank is that of v_p, and s(S_r) itself
    has the last rank r+1.  Level p of the nested insertions into s(S_r)
    is a list indexed by last rank w = 0..r+1, grown from level p-1 and
    starting from s(S_r) alone at w = r+1.  Images: `sets[t][k]` is
    s^t(S_k), grown one size at a time: for t >= 2 a set, by
    `_peel_join` from the levels up to k-2; for t = 1 the list
    `_split_join` forms, from s(S_0), s(S_1) and s(S_2) held from the
    start, and `stats[k]` holds each
    element's (phi, sigma) at the same index, grown apart from it, so a
    count holds the pairs of two levels past their elements and an image
    the elements of two levels past their pairs; `unions[r][p]`, grown by
    `_nest`, holds at w every element whose largest last rank over the
    T(r, ranks) with p ranks is w, and level 0 holds the list
    `sets[1][r]` itself, so the store holds s(S_r) once for the images,
    the unions and every image count; `avoiding[k]` lists the avoiders
    of the barred pattern in S_k (`avoiders`).  Counts:
    `levels[k]` is s(S_k) with preimage weights, grown by `_join`;
    `weights[r][p]`, grown by `_weigh`, maps at w each element to its
    number of pairs (ranks, R) with last rank w; `depths` maps each
    element asked about to the number of sorting passes that sort it;
    `reaches` maps (p, r, e) to H(p, r, e) (`reach`), so claims that
    share the store find each once; `cuts[j]` and `tails[j]` are the
    rows P_j and Q_j of the two-pass DP (`cut_counts`); `sortable[t]`
    is the row W_t(0..k) of the split recurrence for t = 1 or t >= 3
    (`sortable_count`), grown no further than asked; `ends[k]` maps
    the states of the avoiders in S_k to their numbers (`avoider_ends`).
    """

    def __init__(self) -> None:
        self.sets: dict[int, list[Collection[bytes]]] = {
            1: [[b""], [b"\x01"], [b"\x01\x02"]]}
        # the empty permutation's pair is never read
        self.stats: list[list[tuple]] = [[(0, True)], [(0, True)], [(1, True)]]
        self.unions: dict[int, list[list[Collection[bytes]]]] = {}
        self.levels: list[dict[bytes, int]] = [{b"": 1}]
        self.weights: dict[int, list[list[dict[bytes, int]]]] = {}
        self.depths: dict[bytes, int] = {}
        self.reaches: dict[tuple[int, int, int], int] = {}
        self.sortable: dict[int, list[int]] = {}
        self.cuts: list[list[int]] = [[1]]
        self.tails: list[list[int]] = [[0, 1]]
        self.avoiding: list[list[bytes]] = [[b""]]
        # the empty permutation ends in a virtual 0 that is a maximum
        self.ends: list[dict[tuple[int, bool], int]] = [{(0, True): 1}]

    def image(self, n: int, t: int) -> set[bytes]:
        """s^t(S_n) for t >= 1.  Past t = n-1 every image is the identity
        alone, so t is clamped there and no level is built past it.  At
        t = 1 it is a new set of the held list (`sorted_level`)."""
        t = min(t, max(n - 1, 1))
        if t == 1:
            return set(self.sorted_level(n))
        levels = self.sets.setdefault(t, [{b""}])
        while len(levels) <= n:
            levels.append(_peel_join(self, len(levels), t))
        return levels[n]

    def sorted_level(self, k: int) -> list[bytes]:
        """s(S_k) as the list `_split_join` forms, grown one size at a
        time."""
        levels = self.sets[1]
        while len(levels) <= k:
            self.sorted_stats(len(levels) - 2)
            levels.append(_split_join(self, len(levels)))
        return levels[k]

    def sorted_stats(self, k: int) -> list[tuple]:
        """The (phi, sigma) of each element of s(S_k), at its index in
        `sorted_level(k)`, grown one size at a time."""
        stats = self.stats
        while len(stats) <= k:
            self.sorted_level(len(stats) - 2)
            stats.append(_split_pairs(self, len(stats)))
        return stats[k]

    def count(self, n: int, t: int) -> int:
        """|s^t(S_n)| for t >= 1.  A held level, and any n <= 2, is the
        length of the full level; any other count holds no level above
        n-2.

        At t = 1 the count reads the pairs of the levels up to n-2 only.
        `_split_join` forms each element of s(S_n) once, from x in
        s(S_a), y in s(S_{n-1-a}) and each K with |K| = a and
        max K - a >= phi(y), 1 <= a <= n-2, and C(q+a-1, a-1) kept sets
        K have max K - a = q, so, summing over q <= n-1-a,

            |s(S_n)| = sum over a of |s(S_a)| times the sum over y of
                       C(n-1, a) - C(phi(y)+a-1, a),

        which reads only the phi of each level.  The pairs of a level
        read the elements two sizes below it, so the count forms no
        element above s(S_{n-4}).  Like the rules it rests on, this is
        checked, not proved.

        For t >= 2 and n >= 2 the elements of s^t(S_n) that start with an
        ascent are exactly g (+) q for q in s^t(S_{n-1}) and
        1 <= g <= q_1, where g (+) q is g followed by q with its entries
        >= g raised by one.  So the count is |D_n| + the sum of q_1 over
        s^t(S_{n-1}), where D_n, the elements that start with a descent,
        is all `_peel_join` forms.  Once more at n-1 (n >= 3), the q
        that start with an ascent are g (+) y for y in s^t(S_{n-2}) and
        g <= y_1, whose first entries sum to y_1 (y_1 + 1) / 2, so

            |s^t(S_n)| = |D_n| + sum of x_1 over D_{n-1}
                         + sum of y_1 (y_1 + 1) / 2 over s^t(S_{n-2}),

        and `_peel_join` at n and n-1 reads levels up to n-2 only.  For
        t >= n-2 every kept set it joins has size 1, whose left factor is
        1 alone, so it reads no level and `image(n-2, t)` may clamp t.

        By induction on n, over sigma = s^t(L n R) with p and K as in
        `_peel_join`.  If |L| < t, sigma = x n with x in s^t(S_{n-1}), and
        x less x_1 is in s^t(S_{n-2}) by the hypothesis, so sigma less
        sigma_1 is in s^t(S_{n-2}) (n-1).  If |K| >= 2, sigma_1 is in K,
        so removing it from L by the hypothesis at |L| leaves the top p
        values of L, and T, unchanged.  If K = {sigma_1}, sigma less
        sigma_1 is T n, the image of (L - {sigma_1}) n R, since
        |L| - 1 = p < t.  The converse inserts g into L the same way.
        """
        if t == 1:
            held = max(self.sets[1], self.stats, key=len)
            if len(held) > n:
                return len(held[n])
            self.sorted_stats(n - 2)
            phis = [collections.Counter(f for f, _ in stats)
                    for stats in self.stats[:n - 1]]
            return sum(len(self.stats[a]) * sum(
                m * (math.comb(n - 1, a) - math.comb(f + a - 1, a))
                for f, m in phis[n - 1 - a].items()) for a in range(1, n - 1))
        if n < 3 or len(self.sets.get(t, ())) > n:
            return len(self.image(n, t))
        # every k-th byte of length-k elements, joined, is a first entry
        firsts = b"".join(self.image(n - 2, t))[::n - 2]
        return (len(_peel_join(self, n, t, True))
                + sum(b"".join(_peel_join(self, n - 1, t, True))[::n - 1])
                + sum(y * (y + 1) for y in firsts) // 2)

    def preimages(self, k: int) -> dict[bytes, int]:
        """s(S_k), each element mapped to its number of preimages under s,
        grown one size at a time by `_join`."""
        while len(self.levels) <= k:
            self.levels.append(_join(self.levels, len(self.levels)))
        return self.levels[k]

    def nested(self, r: int, p: int) -> list[Collection[bytes]]:
        """Level p of `unions[r]`, grown once from the one below it."""
        levels = self.unions.get(r)
        if levels is None:
            levels = self.unions[r] = [[[]] * (r + 1) + [self.sorted_level(r)]]
        while len(levels) <= p:
            levels.append(_nest(levels[-1]))
        return levels[p]

    def weighted(self, r: int, p: int) -> list[dict[bytes, int]]:
        """Level p of the weighted nested insertions into s(S_r): at each
        last rank w, every element of the T(r, ranks) with p ranks and
        last rank w, mapped to its number of pairs (ranks, R), R in S_r.
        Each level is grown once from the one below it."""
        levels = self.weights.get(r)
        if levels is None:
            levels = self.weights[r] = [[{}] * (r + 1) + [self.preimages(r)]]
        while len(levels) <= p:
            levels.append(_weigh(levels[-1]))
        return levels[p]

    def depth(self, x: bytes) -> int:
        """The number of sorting passes that sort x, found once for x and
        for every element its passes go through."""
        d = self.depths.get(x)
        if d is None:
            y = bytes(_stack_pass(x))
            # a pass fixes the identity alone
            d = self.depths[x] = 0 if y == x else 1 + self.depth(y)
        return d

    def reach(self, p: int, r: int, e: int) -> int:
        """H(p, r, e) for p >= 1: the pairs of p ranks in [r+p] and an R in
        S_r whose element of T(r, ranks) e passes sort, found once per
        store.  For e >= 1 it is read off level p of the weighted nested
        insertions.  For e = 0 it is read off level p-1: the child of b at
        rank v is the identity exactly when s(b) is increasing and b[:v-1]
        is {1..v-1}, so each b of last rank w with s(b) increasing gives
        its weight once per cut point c < w where b[:c] is {1..c}."""
        h = self.reaches.get((p, r, e))
        if h is None:
            if e:
                h = sum(w for table in self.weighted(r, p)
                        for x, w in table.items() if self.depth(x) <= e)
            else:
                h = 0
                ident = tuple(range(1, r + p))
                for w, table in enumerate(self.weighted(r, p - 1)):
                    for b, n in table.items():
                        if _stack_pass(b) == ident:
                            # the prefix maxima max(b[:c]), c = 0..w-1
                            tops = itertools.accumulate(b, max, initial=0)
                            h += n * sum(
                                top == c for c, top in zip(range(w), tops))
            self.reaches[p, r, e] = h
        return h

    def sortable_count(self, t: int, n: int) -> int:
        """W_t(n) for t = 1 or t >= 3, by the split recurrence of
        `count_t_stack_sortable`.  Each entry of the row W_t is grown once,
        from the entries below it, and none past n."""
        row = self.sortable.setdefault(t, [1])
        while len(row) <= n:
            k = len(row)
            if k <= t + 1:  # k-1 passes sort S_k
                total = k * row[-1]
            else:
                total = row[k - 1]
                for a in range(1, k):
                    p, r, e = min(a, t - 1), k - 1 - a, max(t - 1 - a, 0)
                    total += row[a] * (self.reach(p, r, e) if p else row[r])
            row.append(total)
        return row[n]

    def cut_counts(self, j: int) -> list[int]:
        """P_j: at k, the number of beta in S_j that two passes sort and
        whose s(beta) has k cut points c >= 1 (`count_t_stack_sortable`).
        Each row is grown once, from the rows below it."""
        rows, tails = self.cuts, self.tails
        while len(rows) <= j:
            m = len(rows)
            row = [0] + rows[-1]  # L empty: one cut point more than R
            for a in range(1, m):
                q = tails[m - 1 - a]
                for i, u in enumerate(rows[a]):
                    for d in range(1, len(q)):
                        row[i + d] += u * q[d]
            rows.append(row)
            # Q_m[d] = P_m[d-1] + P_m[d] + ... for d >= 1
            tails.append([0] + list(itertools.accumulate(row[::-1]))[::-1])
        return rows[j]

    def avoider_ends(self, n: int) -> dict[tuple[int, bool], int]:
        """The states (last entry l, is l a left-to-right maximum) of the
        avoiders of the barred pattern in S_n, each mapped to its number
        of avoiders (`count_avoiders`).  Each row is grown once, from the
        row below it."""
        rows = self.ends
        while len(rows) <= n:
            k = len(rows) - 1
            row: dict[tuple[int, bool], int] = {}
            for (last, lr), count in rows[-1].items():
                for v in range(1, k + 2):
                    if lr or v > last:
                        key = (v, v == k + 1)
                        row[key] = row.get(key, 0) + count
            rows.append(row)
        return rows[n]

    def avoiders(self, m: int) -> list[bytes]:
        """The avoiders of the barred pattern in S_m, the leaves of the
        generating tree that `count_avoiders` walks, each size grown once:
        an avoider q of [k] takes a new last value v, with the entries >= v
        moved up by one, when q ends in k (a left-to-right maximum) or in
        a value below v."""
        levels = self.avoiding
        while len(levels) <= m:
            k = len(levels) - 1
            levels.append([q.translate(_raise(v)) + bytes((v,))
                           for q in levels[-1] for v in range(
                               q[-1] + 1 if q and q[-1] < k else 1, k + 2)])
        return levels[m]


_STORE: contextvars.ContextVar[_Store | None] = contextvars.ContextVar(
    "_STORE", default=None)


def _store() -> _Store:
    """The store of the enclosing `_sharing_levels` block, else a fresh one."""
    return _STORE.get() or _Store()


class _sharing_levels:
    """Share one `_Store` across every image built inside the block; a
    nested block keeps the store of the outermost one.  A class, not a
    generator, since every image claim opens one."""

    __slots__ = ("token",)

    def __enter__(self) -> None:
        self.token = _STORE.set(_store())

    def __exit__(self, *exc: object) -> None:
        _STORE.reset(self.token)


def _brute_image(n: int, t: int) -> frozenset[Perm]:
    """s^t(S_n) from the definition: t passes over every permutation of
    [n].  The test oracle for `image_of_iterate`; no production path
    calls it."""
    return frozenset(stack_sort_iterate(p, t)
                     for p in itertools.permutations(range(1, n + 1)))


def image_of_iterate(
    n: int,
    t: int,
    keep_elements: bool = False,
    shards: int = 1,
    max_n: int | None = None,
) -> ImageReport:
    """Exact image of the t-fold sorting map over all n! permutations.

    s^t(S_n) is joined from the smaller images of the same t
    (`_split_join` at t = 1, else `_peel_join`) in the calling process;
    no preimage weight is formed.
    Without `keep_elements` s^t(S_n) is counted, not held
    (`_Store.count`).  Past t = n-1 the image is the identity alone.
    Keeping more than `KEEP_ALL_MAX_N`! elements is refused, whatever
    `max_n` says: all of S_n above n = `KEEP_ALL_MAX_N`, and under the
    hard cap s(S_11) and s(S_12).  The count decides before any level
    above n-2 is built.
    `shards` must be >= 1 and is otherwise ignored; ROADMAP item 1
    removes it together with the benchmark plans that pass it.
    """
    _require_within(n, max_n)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if t == 0 and keep_elements:
        _require_keepable(n, t, math.factorial(n))
    start = time.perf_counter()
    if t == 0:
        # the 0-fold image is all of S_n; nothing to build for a count
        elements = (frozenset(itertools.permutations(range(1, n + 1)))
                    if keep_elements else None)
        return ImageReport(n=n, t=t, count=math.factorial(n),
                           elements=elements, wall_time=time.perf_counter() - start)
    if keep_elements:
        with _sharing_levels():
            store = _store()
            # |s^t(S_n)| <= n!, so only n > KEEP_ALL_MAX_N can be refused
            if n > KEEP_ALL_MAX_N:
                _require_keepable(n, t, store.count(n, t))
            image = store.image(n, t)
        count, elements = len(image), frozenset(tuple(code) for code in image)
    else:
        count, elements = _store().count(n, t), None
    return ImageReport(n=n, t=t, count=count, elements=elements,
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
        from .constructions import zeta
        # zeta(ell, m) starts with ell, so p can only be zeta(p[0], m)
        if 3 <= p[0] <= m and p == zeta(p[0], m):
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
    # the image stays in the scope's store, so membership reads a set of
    # packed elements (at t = 1 one made from the held list) instead of a
    # copy of every element as a tuple; built first, the report counts
    # the held level.  The report is discarded, yet the call stays: the
    # traced perm-queries run checks `lab.perms_scanned`, to which the
    # tracer adds n! per `image_of_iterate` call;
    # `test_characterize_fallback_keeps_no_elements` pins it; and ROADMAP
    # item 1 removes it together with `shards`
    with _sharing_levels():
        image = _store().image(n, t)
        image_of_iterate(n, t, max_n=max_n)
        return bytes(p) in image, "oracle-fallback"


# ---------------------------------------------------------------------------
# Verification suites

def _predicted_image(n: int, t: int) -> frozenset[bytes]:
    """The characterized set {p in S_n : tail length >= t, avoider},
    byte-packed, built as every avoider q in S_{n-t} (`_Store.avoiders`)
    followed by the fixed tail n-t+1..n."""
    m = n - t
    # appending larger increasing entries adds no descent top and keeps the
    # earlier left-to-right maxima, so q + tail avoids exactly when q does
    fixed_tail = bytes(range(m + 1, n + 1))
    return frozenset(q + fixed_tail for q in _store().avoiders(m))


def _image_claim(claim: str, m: int, n: int, expected: int,
                 extra: frozenset[bytes],
                 max_n: int | None) -> VerificationReport:
    """Check |s^{n-m}(S_n)| = expected, with the image equal element by
    element to the characterized set plus `extra`.  When `extra` is given,
    also check that its members are exactly the image elements that
    contain the barred pattern (`zeta_exact`).

    The checks read the level as the store holds it, a set of packed
    elements, and the report counts that same level, so nothing is
    built twice; at t = 1 they read a set of the held list.  No store
    holds the 0-fold image, all of S_n, so it alone comes from the
    report's elements."""
    t = n - m
    with _sharing_levels():
        if t:
            image = _store().image(n, t)
            observed = image_of_iterate(n, t, max_n=max_n).count
        else:
            report = image_of_iterate(n, t, keep_elements=True, max_n=max_n)
            assert report.elements is not None
            image = {bytes(p) for p in report.elements}
            observed = report.count
        predicted = _predicted_image(n, t)
    checks = {"set_equal": image == (
        predicted | extra if extra else predicted)}
    if extra:
        checks["zeta_exact"] = extra == {
            p for p in image if not descent_tops_are_lr_maxima(p)}
    return VerificationReport(
        claim=claim, parameters={"m": m, "n": n, **checks},
        expected=expected, observed=observed,
        passed=expected == observed and all(checks.values()))


def _count_claim(claim: str, n: int, expected: int,
                 observed: int) -> VerificationReport:
    """The report of a count claim: expected == observed at size n."""
    return VerificationReport(
        claim=claim, parameters={"n": n},
        expected=expected, observed=observed, passed=expected == observed)


def _window(m: int, n_max: int, max_n: int | None) -> list[ImageReport]:
    """The images of the (n-m)-fold map over S_n for n = m..n_max, built
    over one shared store, or refused before any is built if n_max is
    over the bound."""
    _require_within(max(m, n_max), max_n)
    with _sharing_levels():
        return [image_of_iterate(n, n - m, max_n=max_n)
                for n in range(m, n_max + 1)]


def verify_theorem1(m: int, n: int,
                    max_n: int | None = None) -> VerificationReport:
    """Check |image of the (n-m)-fold map over S_n| = B_m for n >= 2m-2,
    including element-by-element equality with the characterized set."""
    if m < 1 or n < m or n < 2 * m - 2:
        raise PreconditionError(
            f"needs 1 <= m <= n and n >= 2m-2, got m={m}, n={n}")
    _require_within(n, max_n)  # before B_m, which grows with m
    return _image_claim("theorem1", m, n, bell(m), frozenset(), max_n)


def verify_theorem2(m: int, max_n: int | None = None) -> VerificationReport:
    """Check |image of the (m-3)-fold map over S_{2m-3}| = B_m + m - 2,
    with the image equal to the characterized set plus exactly the zeta
    family (which are precisely the image elements containing the barred
    pattern)."""
    if m < 3:
        raise PreconditionError(f"needs m >= 3, got m={m}")
    from .constructions import zeta
    _require_within(2 * m - 3, max_n)  # before B_m and the zetas
    zetas = frozenset(bytes(zeta(ell, m)) for ell in range(3, m + 1))
    return _image_claim("theorem2", m, 2 * m - 3, bell(m) + m - 2, zetas,
                        max_n)


def verify_prop2(m: int, n_max: int,
                 max_n: int | None = None) -> VerificationReport:
    """Check that |image of the (n-m)-fold map over S_n| is nonincreasing
    in n, and at least B_m + m - 2 for m <= n <= 2m-3.  expected/observed
    are the number of checks made/passed; the count chain rides along in
    parameters."""
    if m < 1 or n_max < m:
        raise PreconditionError(
            f"needs 1 <= m <= n_max, got m={m}, n_max={n_max}")
    counts = [row.count for row in _window(m, n_max, max_n)]
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
    (l, is l a left-to-right maximum) in O(n^3) steps, and a shared store
    keeps each size's states (`_Store.avoider_ends`).
    """
    _require_within(n, max_n)
    return sum(_store().avoider_ends(n).values())


def count_t_stack_sortable(n: int, t: int, max_n: int | None = None) -> int:
    """Count of p in S_n fully sorted by t passes, without scanning S_n.

    W(k) = W_t(k) sums only the splits L k R, |L| = a, that s^t sends to
    the identity.  With p = min(a, t-1), e = max(t-1-a, 0) and
    v_1 > ... > v_p the top p values of L, the peel of `_peel_join` gives
    s^t(L k R) = strip_p(s^t(L)) s^e(T) k, where T = s(v_p ... s(v_1
    s(R))); for a < t all of L is peeled (p = a), and the a+1 passes
    that make T leave e.  So the identity needs L less its top p values
    to be {1..a-p} with L sorted by t passes, W(a) orders of L (all a!
    when a < t), and T sorted by e more passes:

        W(k) = W(k-1) + sum_{a=1}^{k-1} W(a) H(p, k-1-a, e),

    the first term being L empty.  H(p, r, e) (`_Store.reach`) counts the
    rank sets of the v's in [r+p] and the R in S_r whose T is sorted by e
    passes.  W(k) = k! for k <= t+1, since k-1 passes sort S_k.  For
    t = 1, H(0, r, 0) = W_1(r), so no level is built.  For t >= 3 every
    H is found once per store, and the e = 0 terms read level t-2, so
    level t-1 is never built.  The row W_t(0..n) stays on the store
    (`_Store.sortable_count`), so claims that share it grow each entry
    once.

    For t = 2 no level is built at all.  For beta in S_j that two passes
    sort, let kappa(beta) count the cut points c = 1..j of s(beta), those
    with s(beta)[:c] = {1..c}; c = j always counts.  By the peel, two
    passes sort beta = L j R, a >= 1, exactly when L = {1..a-1} plus l,
    two passes sort L and R, and c0 = l - a is a cut point e_i of s(R),
    0 = e_0 < ... < e_kappa(R) = |R| (the condition `_Store.reach`
    reads).  Then kappa(beta) = kappa(L) + kappa(R) - i + 1, and with L
    empty kappa(beta) = kappa(R) + 1.  So the row P_j, at k the number of
    beta with kappa(beta) = k, as a polynomial in x, follows from the
    smaller rows (`_Store.cut_counts`):

        P_0 = 1,  P_m = x P_{m-1} + sum_{a=1}^{m-1} P_a Q_{m-1-a},

    where Q_r[d] = sum_{k >= d-1} P_r[k] for d >= 1 counts the R whose
    s(R) has a cut point e_i with kappa(R) - i + 1 = d.  Then W_2(n) is
    the sum of P_n, and H(1, r, 0) that of Q_r.
    """
    _require_within(n, max_n)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1
    store = _store()
    if t == 2:
        return sum(store.cut_counts(n))
    return store.sortable_count(t, n)


def verify_thm3_count(n: int, max_n: int | None = None) -> VerificationReport:
    """Check that barred-pattern avoiders of [n] are counted by B_n."""
    observed = count_avoiders(n, max_n=max_n)  # raises past the bound
    return _count_claim("thm3_count", n, bell(n), observed)


def verify_catalan(n: int, max_n: int | None = None) -> VerificationReport:
    """Check the 1-pass-sortable count against the Catalan number."""
    observed = count_t_stack_sortable(n, 1, max_n=max_n)
    return _count_claim("catalan", n, catalan(n), observed)


def verify_west_zeilberger(n: int, max_n: int | None = None) -> VerificationReport:
    """Check the 2-pass-sortable count against the closed formula."""
    if n < 1:
        raise PreconditionError(f"needs n >= 1, got n={n}")
    observed = count_t_stack_sortable(n, 2, max_n=max_n)
    return _count_claim("west_zeilberger", n, west_zeilberger_count(n),
                        observed)


def verify_all(max_n: int, shards: int = 1) -> list[VerificationReport]:
    """Every verification claim instantiated over all parameters that fit
    within the bound.  `shards` must be >= 1 and is otherwise ignored;
    ROADMAP item 1 removes it together with the benchmark plans that
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
    rows = _window(m, 2 * m - 2, max_n)
    # m! at n = m, B_m + m - 2 at n = 2m-3 and B_m at n = 2m-2; where two
    # of these n coincide (m <= 3) so do their values
    pins = {m: math.factorial(m), 2 * m - 3: bell(m) + m - 2,
            2 * m - 2: bell(m)}
    for row in rows:
        if pins.get(row.n, row.count) != row.count:
            raise AssertionError(f"explore entry at n = {row.n} must be "
                                 f"{pins[row.n]}, got {row.count}")
    return rows
