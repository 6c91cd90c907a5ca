import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stacksortlab
from conftest import perms
from stacksortlab import (
    InvalidPermutationError,
    format_trace,
    identity,
    is_t_stack_sortable,
    stack_sort,
    stack_sort_iterate,
    stack_sort_recursive,
    standardize,
    trace_stack_sort,
)

words = st.lists(st.integers(min_value=1, max_value=99), unique=True,
                 max_size=20).map(tuple)


def test_stack_sort_examples():
    assert stack_sort((4, 1, 6, 2)) == (1, 4, 2, 6)
    assert stack_sort((5, 2, 7, 3, 6, 1, 4)) == (2, 5, 3, 1, 4, 6, 7)
    assert stack_sort(()) == ()


def test_stack_sort_rejects_a_repeated_entry():
    # every sorting entry checks its input once, before any pass; the
    # iteration at t = 0 too
    from stacksortlab import contains_231
    entries = (stack_sort, trace_stack_sort, contains_231,
               lambda p: stack_sort_iterate(p, 0),
               lambda p: stack_sort_iterate(p, 3))
    for entry in entries:
        for p in ((2, 2, 1), (2, 3, 2)):
            with pytest.raises(InvalidPermutationError):
                entry(p)


def test_stack_sort_rejects_a_repeated_entry_under_dash_o():
    # the check must survive `python -O`, which strips asserts
    code = ("from stacksortlab import InvalidPermutationError, stack_sort\n"
            "for p in ((2, 2, 1), (2, 3, 2)):\n"
            "    try:\n"
            "        print(stack_sort(p))\n"
            "    except InvalidPermutationError:\n"
            "        print('rejected')\n")
    src = str(Path(stacksortlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "rejected\nrejected\n", "")


def test_recursive_examples():
    assert stack_sort_recursive((2, 3, 1)) == (2, 1, 3)
    assert stack_sort_recursive((3, 2, 1)) == (1, 2, 3)
    for n in range(9):
        assert stack_sort_recursive(identity(n)) == identity(n)


def test_definitions_agree_exhaustively():
    for n in range(9):
        for p in perms(n):
            assert stack_sort(p) == stack_sort_recursive(p)


@given(words)
def test_definitions_agree_on_random_words(w):
    assert stack_sort(w) == stack_sort_recursive(w)


def test_iterate_examples():
    assert stack_sort_iterate((3, 5, 2, 4, 1), 1) == (3, 2, 1, 4, 5)
    for p in perms(5):
        assert stack_sort_iterate(p, 4) == (1, 2, 3, 4, 5)
    for p in perms(4):
        assert stack_sort_iterate(p, 0) == p


def test_iterate_rejects_negative():
    with pytest.raises(ValueError):
        stack_sort_iterate((2, 1), -1)


def test_sortability_examples():
    assert not is_t_stack_sortable((2, 3, 1), 1)
    assert is_t_stack_sortable((1, 3, 2), 1)
    assert is_t_stack_sortable((1, 2, 3, 4), 0)


def test_one_pass_sortable_iff_avoids_231():
    # Knuth's equivalence, against the naive search rather than
    # `contains_231`, which is defined by one pass
    from test_patterns import naive_contains_231
    for n in range(8):
        for p in perms(n):
            assert is_t_stack_sortable(p, 1) == (not naive_contains_231(p))


def test_trace_fig1():
    tr = trace_stack_sort((4, 1, 6, 2))
    assert tr.events == (("push", 4), ("push", 1), ("pop", 1), ("pop", 4),
                         ("push", 6), ("push", 2), ("pop", 2), ("pop", 6))
    assert tr.output == (1, 4, 2, 6)
    assert format_trace(tr) == (
        "push 4\npush 1\npop 1\npop 4\npush 6\npush 2\npop 2\npop 6\n"
        "output 1 4 2 6")


def test_trace_tiny():
    assert trace_stack_sort((1,)).events == (("push", 1), ("pop", 1))
    tr = trace_stack_sort((2, 1))
    assert tr.events == (("push", 2), ("push", 1), ("pop", 1), ("pop", 2))
    assert tr.output == (1, 2)


def _replay(p, trace):
    """Re-run the events against the declared machine rules."""
    stack = []
    out = []
    inputs = list(p)
    pushes = pops = 0
    for kind, value in trace.events:
        if kind == "push":
            assert inputs and inputs[0] == value, "pushes follow input order"
            assert not stack or stack[-1] > value, "stack decreasing"
            stack.append(inputs.pop(0))
            pushes += 1
        else:
            assert stack and stack[-1] == value
            out.append(stack.pop())
            pops += 1
    assert pushes == pops == len(p)
    assert not inputs and not stack
    return tuple(out)


def test_trace_replays_to_output_exhaustively():
    for n in range(7):
        for p in perms(n):
            tr = trace_stack_sort(p)
            assert len(tr.events) == 2 * n
            assert _replay(p, tr) == tr.output == stack_sort(p)


def test_max_lands_last_and_never_moves_left():
    for n in range(1, 7):
        for p in perms(n):
            s = stack_sort(p)
            assert s[-1] == max(p)
            assert s.index(max(p)) >= p.index(max(p))


@given(words)
def test_standardize_commutes_with_sort(w):
    assert stack_sort(standardize(w)) == standardize(stack_sort(w))


def test_pairwise_21_transfer():
    # entries b > a invert in s(p) exactly when some c completes a 231 in p
    from stacksortlab import exists_231_with_endpoints
    for n in range(6):
        for p in perms(n):
            s = stack_sort(p)
            for a, b in itertools.combinations(range(1, n + 1), 2):
                inverted = s.index(b) < s.index(a)
                witness = exists_231_with_endpoints(p, b, a)
                assert inverted == (witness is not None)
