"""West's stack-sorting map: one-pass machine, recursive definition,
iterated application, and replayable traces."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InvalidPermutationError
from .perm import Perm, format_permutation, is_increasing


def stack_sort(p: Sequence[int]) -> Perm:
    """One pass of the sorting stack (the production implementation).

    The next input entry is pushed whenever the stack is empty or the entry
    is smaller than the stack top; otherwise the top pops to the output.
    Entries must be distinct (`_distinct`).

    >>> stack_sort((4, 1, 6, 2))
    (1, 4, 2, 6)
    >>> stack_sort(())
    ()
    """
    return _stack_pass(_distinct(p))


def _distinct(p: Sequence[int]) -> Perm:
    """p as a tuple.  A repeated entry raises `InvalidPermutationError`
    before any pass starts, since the machine has no rule to break a tie;
    every public entry of this module checks its input here, once."""
    q = tuple(p)
    if len(set(q)) != len(q):
        raise InvalidPermutationError(f"repeated entry in {q}")
    return q


def _stack_pass(p: Sequence[int]) -> Perm:
    """One pass of the stack without the check for repeated entries, for
    callers whose input is distinct already: the entries of this module
    after `_distinct`, and the image and count engines of `lab`, whose
    permutations are distinct by construction."""
    out: list[int] = []
    stack: list[int] = []
    for x in p:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def stack_sort_recursive(p: Sequence[int]) -> Perm:
    """The same map through s(L m R) = s(L) s(R) m, m the maximum entry.

    Kept as an independent implementation for differential testing against
    `stack_sort`; quadratic and perfectly happy to stay that way.

    >>> stack_sort_recursive((5, 2, 7, 3, 6, 1, 4))
    (2, 5, 3, 1, 4, 6, 7)
    """
    p = tuple(p)
    if not p:
        return ()
    i = p.index(max(p))
    return stack_sort_recursive(p[:i]) + stack_sort_recursive(p[i + 1:]) + (p[i],)


def stack_sort_iterate(p: Sequence[int], t: int) -> Perm:
    """t-fold application of the map; t = 0 is the identity map.

    A pass fixes exactly the increasing sequences, so iteration stops as
    soon as a pass returns its own input.
    """
    if t < 0:
        raise ValueError("iteration count must be nonnegative")
    q = _distinct(p)
    for _ in range(t):
        r = _stack_pass(q)
        if r == q:
            break
        q = r
    return q


def is_t_stack_sortable(p: Sequence[int], t: int) -> bool:
    """True when t passes of the map fully sort p."""
    return is_increasing(stack_sort_iterate(p, t))


class StackTrace(NamedTuple):
    """Push/pop transcript of a single sorting pass.

    Exactly n pushes (in input order) and n pops (spelling the output);
    at every moment the live stack decreases from bottom to top.
    """

    events: tuple[tuple[str, int], ...]
    output: Perm


def trace_stack_sort(p: Sequence[int]) -> StackTrace:
    """Replayable event record of `stack_sort`.

    >>> trace_stack_sort((2, 1)).events
    (('push', 2), ('push', 1), ('pop', 1), ('pop', 2))
    """
    p = _distinct(p)
    events: list[tuple[str, int]] = []
    out: list[int] = []
    stack: list[int] = []
    for x in p:
        while stack and stack[-1] < x:
            v = stack.pop()
            events.append(("pop", v))
            out.append(v)
        stack.append(x)
        events.append(("push", x))
    while stack:
        v = stack.pop()
        events.append(("pop", v))
        out.append(v)
    return StackTrace(events=tuple(events), output=tuple(out))


def format_trace(trace: StackTrace, compact: bool = False) -> str:
    """One `push <v>` / `pop <v>` line per event, terminated by an
    `output <perm>` line."""
    lines = [f"{kind} {value}" for kind, value in trace.events]
    lines.append(f"output {format_permutation(trace.output, compact=compact)}")
    return "\n".join(lines)
