"""Pattern machinery: 21/231 occurrences, the barred pattern, its
descent-top characterization, and the bijection onto set partitions.

The barred pattern (written 32-4bar-1 in pattern notation) occurs in p at
positions i1 < i2 < i3 when p[i1] > p[i2] > p[i3] and every entry strictly
between positions i2 and i3 is smaller than p[i1].  Avoiding it is
equivalent to every descent top being a left-to-right maximum; that O(n)
check is what enumeration hot paths use, while the naive positional search
stays around as the witness-producing differential oracle.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidPermutationError, ParseError, PreconditionError
# the descent-top check lives in perm, so the lab uses it without loading
# this module; it is re-exported here
from .perm import Perm, descent_tops_are_lr_maxima, is_standard
from .stacksort import is_t_stack_sortable


class BarredOccurrence(NamedTuple):
    """Witness of the barred pattern: 1-based positions i1 < i2 < i3 whose
    values decrease, with nothing larger than the first value strictly
    between the second and third positions."""

    positions: tuple[int, int, int]
    values: tuple[int, int, int]


def contains_231(p: Sequence[int]) -> bool:
    """True when entries b, c, a appear in this order with a < b < c:
    exactly when one pass of the stack leaves p unsorted (Knuth).  Entries
    must be distinct, as for `stack_sort`."""
    return not is_t_stack_sortable(p, 1)


def exists_231_with_endpoints(p: Sequence[int], b: int, a: int) -> int | None:
    """The rightmost-positioned entry c such that b, c, a form a 231
    occurrence in p, or None when no such c exists.

    a and b must both be entries of p with a < b.
    """
    p = tuple(p)
    if a >= b:
        raise InvalidPermutationError(f"need a < b, got a={a}, b={b}")
    try:
        ib = p.index(b)
        ia = p.index(a)
    except ValueError:
        raise InvalidPermutationError(
            f"{a} and {b} must both be entries of {p}") from None
    if ib > ia:
        return None
    for j in range(ia - 1, ib, -1):
        if p[j] > b:
            return p[j]
    return None


def find_barred_3241(p: Sequence[int]) -> BarredOccurrence | None:
    """Lexicographically least witness of the barred pattern, or None.

    Naive positional search; fine at single-permutation scale and kept
    deliberately definition-shaped so it can arbitrate against the fast
    descent-top check.
    """
    p = tuple(p)
    n = len(p)
    for i1 in range(n - 2):
        v1 = p[i1]
        for i2 in range(i1 + 1, n - 1):
            v2 = p[i2]
            if v2 >= v1:
                continue
            gap_max = 0
            for i3 in range(i2 + 1, n):
                v3 = p[i3]
                if v3 < v2 and gap_max < v1:
                    return BarredOccurrence(
                        positions=(i1 + 1, i2 + 1, i3 + 1),
                        values=(v1, v2, v3))
                if v3 > gap_max:
                    gap_max = v3
    return None


def avoids_barred_3241(p: Sequence[int]) -> bool:
    """Negation of `find_barred_3241` producing a witness."""
    return find_barred_3241(p) is None


def barred_occurrence_involving_min(p: Sequence[int]) -> BarredOccurrence | None:
    """A barred-pattern witness whose third position holds the entry 1, or
    None.  Requires a permutation of [n]; returns the lexicographically
    least such witness."""
    p = tuple(p)
    if not is_standard(p):
        raise InvalidPermutationError(
            f"requires a permutation of [n], got {p}")
    if not p:
        return None
    r = p.index(1)
    for i1 in range(r - 1):
        v1 = p[i1]
        for i2 in range(i1 + 1, r):
            if p[i2] >= v1:
                continue
            if max(p[i2 + 1:r], default=0) < v1:
                return BarredOccurrence(
                    positions=(i1 + 1, i2 + 1, r + 1),
                    values=(v1, p[i2], 1))
    return None


SetPartition = tuple[frozenset[int], ...]


def check_partition(blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Validate blocks as a set partition of [n]; canonical order is by
    increasing block maximum."""
    bl = tuple(frozenset(b) for b in blocks)
    if any(not b for b in bl):
        raise PreconditionError("set partitions have no empty blocks")
    total = sum(len(b) for b in bl)
    union: set[int] = set().union(*bl) if bl else set()
    if len(union) != total:
        raise PreconditionError("blocks must be disjoint")
    if union != set(range(1, total + 1)):
        raise PreconditionError(
            f"ground set must be exactly 1..{total}, got {sorted(union)}")
    return tuple(sorted(bl, key=max))


def callan_partition(p: Sequence[int]) -> SetPartition:
    """Cut p just before each left-to-right maximum; the segments (each
    running from one maximum up to the next) are the blocks.

    Defined exactly on barred-pattern avoiders of [n], where it is a
    bijection onto the set partitions of [n].
    """
    p = tuple(p)
    if not is_standard(p):
        raise InvalidPermutationError(
            f"requires a permutation of [n], got {p}")
    occ = find_barred_3241(p)
    if occ is not None:
        raise PreconditionError(
            f"not defined: barred pattern at positions {occ.positions}")
    cuts = [i for i in range(len(p)) if p[i] > max(p[:i], default=0)]
    cuts.append(len(p))
    blocks = [frozenset(p[cuts[r]:cuts[r + 1]]) for r in range(len(cuts) - 1)]
    return tuple(sorted(blocks, key=max))


def callan_inverse(blocks: Iterable[Iterable[int]]) -> Perm:
    """Inverse of `callan_partition`: blocks by increasing maximum, each
    written as its maximum followed by the rest in increasing order."""
    out: list[int] = []
    for b in check_partition(blocks):
        mx = max(b)
        out.append(mx)
        out.extend(sorted(b - {mx}))
    return tuple(out)


def parse_partition(text: str) -> SetPartition:
    """Parse the block format ``{2}{1,3}{4}``."""
    s = text.strip()
    if not s:
        return ()
    if not (s.startswith("{") and s.endswith("}")):
        raise ParseError(f"partition must look like {{2}}{{1,3}}, got {text!r}")
    blocks: list[list[int]] = []
    for k, piece in enumerate(s[1:-1].split("}{"), start=1):
        block: list[int] = []
        for tok in piece.split(","):
            tok = tok.strip()
            if not (tok.isascii() and tok.isdecimal()) or int(tok) < 1:
                raise ParseError(
                    f"block {k}: {tok!r} is not a positive integer",
                    position=k)
            block.append(int(tok))
        blocks.append(block)
    return check_partition(blocks)


def format_partition(blocks: Iterable[Iterable[int]]) -> str:
    """Canonical block format: ``{2}{1,3}{4}`` (blocks by increasing
    maximum, elements increasing)."""
    return "".join(
        "{" + ",".join(str(v) for v in sorted(b)) + "}"
        for b in check_partition(blocks))
