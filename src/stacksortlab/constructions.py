"""Constructive preimages under the stack-sorting map, plus the exceptional
zeta/xi families living at the boundary of the image characterization.

`canonical_preimage` inverts one sorting pass on the permutations that
admit it (barred-pattern avoiders ending in their maximum), deterministically
and without search; `iterated_lift` chains it to invert as many passes as
the tail length allows.  Both constructions preserve avoidance, which is
what makes the chaining sound.
"""

from __future__ import annotations

from typing import Sequence

from .errors import PreconditionError
from .patterns import find_barred_3241
from .perm import Perm, check_permutation, is_standard, tail_length


def canonical_preimage(p: Sequence[int]) -> Perm:
    """A permutation sigma with stack_sort(sigma) = p, sigma avoiding the
    barred pattern and having the same left-to-right maxima as p.

    Requires p to avoid the barred pattern and to end in its largest entry;
    its entries may be any distinct positive integers, and sigma has the
    same ones.  The recursion peels off the minimum entry m0: build sigma'
    for p with m0 deleted, then reinsert m0 -- at the front when p starts
    with m0, otherwise immediately after b, the leftmost entry of sigma'
    that sits right of a (= the entry preceding m0 in p) and exceeds a.
    Every step only compares entries, so the recursion runs on p's own
    entries, with no relabelling.  Fixing both choices makes the
    whole map a canonical section of the sorting pass; other valid
    preimages exist but are never produced.
    """
    p = tuple(p)
    if not p:
        return ()
    if p[-1] != max(p):
        raise PreconditionError(
            f"preimage construction needs the largest entry last: {p}")
    occ = find_barred_3241(p)
    if occ is not None:
        raise PreconditionError(
            f"preimage construction needs a barred-pattern avoider; "
            f"occurrence at positions {occ.positions}")
    check_permutation(p)
    m0 = min(p)
    r = p.index(m0)
    sub = canonical_preimage(p[:r] + p[r + 1:])
    if r == 0:
        return (m0,) + sub
    a = p[r - 1]
    ia = sub.index(a)
    # a is a left-to-right maximum of sub but not its maximum, so some
    # larger entry sits to its right; take the leftmost
    ib = next(j for j in range(ia + 1, len(sub)) if sub[j] > a)
    return sub[:ib + 1] + (m0,) + sub[ib + 1:]


def iterated_lift(p: Sequence[int], t: int | None = None) -> Perm:
    """A barred-pattern avoider sigma with stack_sort_iterate(sigma, t) = p.

    p must be a barred-pattern avoider of [n]; t defaults to the tail
    length of p and may be anything up to it.  Each level strips the final
    entry n (fixed, since the tail is that long), lifts the rest once less,
    re-appends n and takes one canonical preimage.
    """
    p = tuple(p)
    if not is_standard(p):
        raise PreconditionError(f"lift needs a permutation of [n], got {p}")
    occ = find_barred_3241(p)
    if occ is not None:
        raise PreconditionError(
            f"lift needs a barred-pattern avoider; "
            f"occurrence at positions {occ.positions}")
    ell = tail_length(p)
    if t is None:
        t = ell
    if not 0 <= t <= ell:
        raise PreconditionError(
            f"can lift at most tail_length = {ell} times, asked for {t}")
    if t == 0:
        return p
    tau = iterated_lift(p[:-1], t - 1)
    return canonical_preimage(tau + (len(p),))


def zeta(ell: int, m: int) -> Perm:
    """The length 2m-3 permutation obtained from the identity by swapping
    1 and 2, then moving ell to the front.  Needs 3 <= ell <= 2m-3.

    >>> zeta(3, 3)
    (3, 2, 1)
    >>> zeta(4, 4)
    (4, 2, 1, 3, 5)
    """
    if m < 3 or not 3 <= ell <= 2 * m - 3:
        raise PreconditionError(
            f"zeta needs m >= 3 and 3 <= ell <= 2m-3, got ell={ell}, m={m}")
    n = 2 * m - 3
    return (ell, 2, 1) + tuple(k for k in range(3, n + 1) if k != ell)


def xi(ell: int, m: int) -> Perm:
    """Explicit lift of zeta(ell, m): applying the sorting pass m-3 times
    to xi(ell, m) yields zeta(ell, m).  Needs 3 <= ell <= m.

    Obtained from (m+1)(m+2)...(2m-3) 1 2 3...m by moving ell to the front
    and 1 to the end.

    >>> xi(3, 4)
    (3, 5, 2, 4, 1)
    """
    if m < 3 or not 3 <= ell <= m:
        raise PreconditionError(
            f"xi needs m >= 3 and 3 <= ell <= m, got ell={ell}, m={m}")
    n = 2 * m - 3
    return ((ell,) + tuple(range(m + 1, n + 1))
            + tuple(k for k in range(2, m + 1) if k != ell) + (1,))
