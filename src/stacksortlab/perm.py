"""Permutations in one-line notation and their elementary statistics.

A permutation here is any ordering of a finite set of distinct positive
integers, stored as a tuple of ints: ``(2, 5, 8, 4)`` is a permutation even
though its entries are not 1..4.  A permutation *of [n]* uses exactly the
values 1..n (see `is_standard`).  All positions reported or accepted by
this package are 1-based.  The empty permutation is a valid value; every
statistic returns empty/0 on it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import EmptyPermutationError, InvalidPermutationError, ParseError

Perm = tuple[int, ...]

# Single operations are linear time, so the only hard length limit lives in
# the text parser: enumeration, the actual scaling limit, is capped far
# lower (see lab.DEFAULT_MAX_N).
MAX_PARSE_LEN = 20


def check_permutation(entries: Iterable[int]) -> Perm:
    """Validate distinct positive integer entries; return them as a tuple."""
    p = tuple(entries)
    for v in p:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InvalidPermutationError(
                f"entries must be positive integers, got {v!r}")
    if len(set(p)) != len(p):
        raise InvalidPermutationError(f"entries must be distinct: {p}")
    return p


def is_standard(p: Sequence[int]) -> bool:
    """True when the entries are exactly 1..n."""
    return set(p) == set(range(1, len(p) + 1))


def identity(n: int) -> Perm:
    """The increasing permutation 1 2 ... n."""
    return tuple(range(1, n + 1))


def is_increasing(p: Sequence[int]) -> bool:
    return all(p[i] < p[i + 1] for i in range(len(p) - 1))


def standardize(word: Iterable[int]) -> Perm:
    """Relabel the i-th smallest entry to i, keeping relative order.

    >>> standardize((3, 8, 6, 9))
    (1, 3, 2, 4)
    >>> standardize((2, 5, 8, 4))
    (1, 3, 4, 2)
    """
    w = check_permutation(word)
    rank = {v: i + 1 for i, v in enumerate(sorted(w))}
    return tuple(rank[v] for v in w)


def del_min(p: Sequence[int]) -> Perm:
    """Drop the smallest entry; everything else keeps value and order.

    >>> del_min((4, 9, 6, 2, 8))
    (4, 9, 6, 8)
    """
    if not p:
        raise EmptyPermutationError("del_min of the empty permutation")
    m = min(p)
    return tuple(v for v in p if v != m)


def descents(p: Sequence[int]) -> set[int]:
    """1-based positions i with p_i > p_{i+1}.

    >>> sorted(descents((4, 1, 6, 2)))
    [1, 3]
    """
    return {i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1]}


def descent_tops(p: Sequence[int]) -> set[int]:
    """The entries sitting at descents."""
    return {p[i - 1] for i in descents(p)}


def lr_maxima(p: Sequence[int]) -> set[int]:
    """Entries larger than everything before them (prefix maxima)."""
    out: set[int] = set()
    best = 0
    for v in p:
        if v > best:
            out.add(v)
            best = v
    return out


def descent_tops_are_lr_maxima(p: Sequence[int]) -> bool:
    """True when every descent top is a left-to-right maximum.

    Single pass, no allocation; agrees with `patterns.avoids_barred_3241`
    on every permutation and is the check used inside enumeration loops.
    """
    prefix_max = 0
    for i in range(len(p) - 1):
        x = p[i]
        if x > prefix_max:
            prefix_max = x
        elif x > p[i + 1]:
            return False
    return True


def tail_length(p: Sequence[int]) -> int:
    """Length of the longest suffix fixed pointwise (p_i = i).

    Defined on permutations of [n] only.  The value n-1 is impossible: if
    the last n-1 entries are fixed, the first one is forced as well.

    >>> tail_length((2, 3, 1, 4, 5))
    2
    >>> tail_length((2, 3, 1, 5, 4))
    0
    """
    if not is_standard(p):
        raise InvalidPermutationError(
            f"tail length needs a permutation of [n], got {tuple(p)}")
    ell = 0
    for i in range(len(p), 0, -1):
        if p[i - 1] != i:
            break
        ell += 1
    return ell


def parse_permutation(text: str) -> Perm:
    """Parse one-line notation.

    Space-separated integers are the canonical form (``4 1 6 2``); a
    contiguous digit string (``4162``) is accepted for permutations with
    single-digit entries.  More than `MAX_PARSE_LEN` entries are refused.
    Errors carry the 1-based offending position.
    """
    s = text.strip()
    if not s:
        return ()
    entries: list[int] = []
    if any(ch.isspace() for ch in s):
        for idx, tok in enumerate(s.split(), start=1):
            # ASCII digits only: int() also takes other scripts' digits
            if not (tok.isascii() and tok.isdecimal()) or int(tok) < 1:
                raise ParseError(
                    f"entry {idx} ({tok!r}) is not a positive integer",
                    position=idx)
            entries.append(int(tok))
    else:
        for idx, ch in enumerate(s, start=1):
            if ch not in "123456789":
                raise ParseError(
                    f"invalid character {ch!r} at character {idx}",
                    position=idx)
            entries.append(int(ch))
    if len(entries) > MAX_PARSE_LEN:
        raise ParseError(f"permutation longer than {MAX_PARSE_LEN} entries",
                         position=MAX_PARSE_LEN + 1)
    seen: set[int] = set()
    for idx, v in enumerate(entries, start=1):
        if v in seen:
            raise ParseError(f"duplicate entry {v} at position {idx}",
                             position=idx)
        seen.add(v)
    return tuple(entries)


def format_permutation(p: Sequence[int], compact: bool = False) -> str:
    """Space-separated by default; contiguous digits when `compact` is set
    and every entry is a single digit."""
    if compact and 0 < len(p) <= 9 and max(p) <= 9:
        return "".join(str(v) for v in p)
    return " ".join(str(v) for v in p)
