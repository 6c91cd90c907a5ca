import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import perms
from stacksortlab import (
    EmptyPermutationError,
    InvalidPermutationError,
    ParseError,
    del_min,
    descent_tops,
    descents,
    format_permutation,
    identity,
    is_standard,
    lr_maxima,
    parse_permutation,
    standardize,
    tail_length,
)

words = st.lists(st.integers(min_value=1, max_value=99), unique=True,
                 max_size=12).map(tuple)


def test_standardize_examples():
    assert standardize((3, 8, 6, 9)) == (1, 3, 2, 4)
    assert standardize((1, 2, 3)) == (1, 2, 3)
    assert standardize((2, 5, 8, 4)) == (1, 3, 4, 2)


def test_standardize_rejects_duplicates():
    with pytest.raises(InvalidPermutationError):
        standardize((3, 3, 1))
    with pytest.raises(InvalidPermutationError):
        standardize((0, 2))


@given(words)
def test_standardize_idempotent(w):
    assert standardize(standardize(w)) == standardize(w)


@given(words)
def test_standardize_preserves_relative_order(w):
    s = standardize(w)
    assert is_standard(s)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            assert (w[i] < w[j]) == (s[i] < s[j])


def test_del_min_examples():
    assert del_min((4, 9, 6, 2, 8)) == (4, 9, 6, 8)
    assert del_min((1,)) == ()
    assert del_min((5, 2, 7, 1, 4, 8, 3, 6, 9)) == (5, 2, 7, 4, 8, 3, 6, 9)


def test_del_min_empty():
    with pytest.raises(EmptyPermutationError):
        del_min(())


def test_descents_examples():
    assert descents((1, 2, 3, 4, 5)) == set()
    assert descents((4, 1, 6, 2)) == {1, 3}
    assert descents((2, 3, 1, 5, 4)) == {2, 4}
    assert descents(()) == set()


def test_descent_tops_examples():
    assert descent_tops((4, 1, 6, 2)) == {4, 6}
    assert descent_tops((3, 2, 1)) == {3, 2}
    assert descent_tops((1, 2, 3, 4, 5)) == set()


def test_lr_maxima_examples():
    assert lr_maxima((4, 1, 6, 2)) == {4, 6}
    assert lr_maxima((5, 2, 7, 1, 4, 8, 3, 6, 9)) == {5, 7, 8, 9}
    assert lr_maxima((1, 2, 3, 4, 5)) == {1, 2, 3, 4, 5}
    assert lr_maxima(()) == set()


def test_lr_maxima_contains_first_and_max():
    for n in range(1, 7):
        for p in perms(n):
            lm = lr_maxima(p)
            assert p[0] in lm and max(p) in lm


def test_tail_length_examples():
    assert tail_length((2, 3, 1, 4, 5)) == 2
    assert tail_length((2, 3, 1, 5, 4)) == 0
    assert tail_length((1, 2, 3, 4, 5)) == 5
    assert tail_length(()) == 0


def test_tail_length_requires_standard():
    with pytest.raises(InvalidPermutationError):
        tail_length((2, 5, 8, 4))


def test_descent_top_cardinalities_exhaustive():
    for n in range(7):
        for p in perms(n):
            tops = descent_tops(p)
            assert tops <= set(p)
            assert len(tops) == len(descents(p))


def test_tail_length_never_n_minus_1():
    for n in range(1, 8):
        for p in perms(n):
            tl = tail_length(p)
            assert tl != n - 1
            assert (tl == n) == (p == identity(n))


@given(words)
def test_lr_maxima_commute_with_standardize(w):
    rank = {v: i + 1 for i, v in enumerate(sorted(w))}
    assert lr_maxima(standardize(w)) == {rank[v] for v in lr_maxima(w)}


# text format

def test_parse_compact_and_spaced():
    assert parse_permutation("4162") == (4, 1, 6, 2)
    assert parse_permutation("4 1 6 2") == (4, 1, 6, 2)
    assert parse_permutation("12 5 7") == (12, 5, 7)
    assert parse_permutation("7") == (7,)
    assert parse_permutation("") == ()


def test_parse_errors_cite_position():
    with pytest.raises(ParseError) as exc:
        parse_permutation("41x2")
    assert exc.value.position == 3
    with pytest.raises(ParseError) as exc:
        parse_permutation("4 1 x 2")
    assert exc.value.position == 3
    with pytest.raises(ParseError) as exc:
        parse_permutation("4142")
    assert exc.value.position == 3  # duplicate 4
    with pytest.raises(ParseError):
        parse_permutation("10")  # 0 is not a valid entry
    with pytest.raises(ParseError):
        parse_permutation(" ".join(str(v) for v in range(1, 22)))
    # "²".isdigit() holds, but int("²") raises ValueError
    # and other scripts' digits pass str.isdecimal() and int(), but only
    # ASCII digits are read, in either form
    for text in ("1 ²", "1²", "1 ٣", "1٣", "1 1_0", "1 +2"):
        with pytest.raises(ParseError) as exc:
            parse_permutation(text)
        assert exc.value.position == 2, text


def test_format_permutation():
    assert format_permutation((4, 1, 6, 2)) == "4 1 6 2"
    assert format_permutation((4, 1, 6, 2), compact=True) == "4162"
    assert format_permutation((12, 5, 7), compact=True) == "12 5 7"
    assert format_permutation(()) == ""


def test_format_parse_roundtrip():
    for n in range(7):
        for p in perms(n):
            assert parse_permutation(format_permutation(p)) == p
            assert parse_permutation(format_permutation(p, compact=True)) == p
