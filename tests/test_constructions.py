import random

import pytest

from conftest import perms
from stacksortlab import (
    InvalidPermutationError,
    PreconditionError,
    avoids_barred_3241,
    canonical_preimage,
    identity,
    iterated_lift,
    lr_maxima,
    stack_sort,
    stack_sort_iterate,
    tail_length,
    xi,
    zeta,
)


def test_zeta_examples():
    assert zeta(3, 3) == (3, 2, 1)
    assert zeta(3, 4) == (3, 2, 1, 4, 5)
    assert zeta(4, 4) == (4, 2, 1, 3, 5)
    assert zeta(5, 4) == (5, 2, 1, 3, 4)


def test_zeta_range_errors():
    for ell, m in ((2, 4), (6, 4), (3, 2)):
        with pytest.raises(PreconditionError):
            zeta(ell, m)


def test_xi_examples():
    assert xi(3, 4) == (3, 5, 2, 4, 1)
    assert xi(4, 4) == (4, 5, 2, 3, 1)
    assert xi(3, 3) == (3, 2, 1)


def test_xi_range_errors():
    for ell, m in ((2, 4), (5, 4), (3, 2)):
        with pytest.raises(PreconditionError):
            xi(ell, m)


def test_xi_sorts_to_zeta():
    for m in range(3, 11):
        for ell in range(3, m + 1):
            assert stack_sort_iterate(xi(ell, m), m - 3) == zeta(ell, m)


def test_zeta_family_shape():
    # the exceptional image elements: long enough tails, yet containing the
    # barred pattern
    for m in range(3, 9):
        for ell in range(3, m + 1):
            z = zeta(ell, m)
            assert tail_length(z) >= m - 3
            assert not avoids_barred_3241(z)


def _check_preimage(p):
    sigma = canonical_preimage(p)
    assert stack_sort(sigma) == p
    assert avoids_barred_3241(sigma)
    assert lr_maxima(sigma) == lr_maxima(p)
    return sigma


def test_preimage_worked_example():
    # the construction's own choice, which is the named witness below
    p = (5, 2, 7, 1, 4, 8, 3, 6, 9)
    assert _check_preimage(p) == (5, 7, 2, 8, 1, 4, 9, 3, 6)


def test_preimage_accepts_named_witness():
    # an independently exhibited witness for the same target must satisfy
    # the same three conditions our construction guarantees
    sigma = (5, 7, 2, 8, 1, 4, 9, 3, 6)
    p = (5, 2, 7, 1, 4, 8, 3, 6, 9)
    assert stack_sort(sigma) == p
    assert avoids_barred_3241(sigma)
    assert lr_maxima(sigma) == lr_maxima(p)


def test_preimage_base_cases():
    assert canonical_preimage(()) == ()
    assert canonical_preimage((1,)) == (1,)
    for n in range(8):
        _check_preimage(identity(n))


def test_preimage_on_nonstandard_entries():
    assert _check_preimage((20, 10, 30)) == (20, 30, 10)


def test_preimage_commutes_with_relabelling():
    # every step compares entries, so relabelling p onto larger values by
    # an order-preserving f relabels its preimage by the same f: the
    # postconditions alone would let the choice of sigma drift
    rng = random.Random(33)
    checked = 0
    for n in range(1, 8):
        for p in perms(n):
            if p[-1] != n or not avoids_barred_3241(p):
                continue
            sigma = canonical_preimage(p)
            for _ in range(3):
                f = dict(zip(range(1, n + 1),
                             sorted(rng.sample(range(n + 1, 4 * n + 9), n))))
                assert canonical_preimage(tuple(f[v] for v in p)) == \
                    tuple(f[v] for v in sigma), (p, f)
            checked += 1
    assert checked == 1 + 1 + 2 + 5 + 15 + 52 + 203  # B_{n-1}


def test_preimage_preconditions():
    with pytest.raises(PreconditionError):
        canonical_preimage((1, 3, 2))  # does not end in its maximum
    with pytest.raises(PreconditionError):
        canonical_preimage((3, 2, 1, 4, 5))  # contains the barred pattern
    for p in ((2, 2, 3), (0, 5), (1, 3, 3)):  # not distinct positive entries
        with pytest.raises(InvalidPermutationError):
            canonical_preimage(p)


def test_preimage_postconditions_exhaustive():
    for n in range(1, 7):
        for p in perms(n):
            if p[-1] == n and avoids_barred_3241(p):
                _check_preimage(p)


def test_lift_unique_fiber():
    # 231 is the only one-pass preimage of 213, so the output is forced
    assert iterated_lift((2, 1, 3)) == (2, 3, 1)


def test_lift_zero_tail():
    assert iterated_lift((2, 3, 1, 5, 4)) == (2, 3, 1, 5, 4)


def test_lift_identity_targets():
    for n in range(7):
        p = identity(n)
        sigma = iterated_lift(p)
        assert stack_sort_iterate(sigma, n) == p
        assert avoids_barred_3241(sigma)


def test_lift_explicit_depth():
    p = identity(5)
    for t in range(6):
        sigma = iterated_lift(p, t)
        assert stack_sort_iterate(sigma, t) == p
        assert avoids_barred_3241(sigma)


def test_lift_preconditions():
    with pytest.raises(PreconditionError):
        iterated_lift((2, 5, 8, 4))  # not a permutation of [n]
    with pytest.raises(PreconditionError):
        iterated_lift((3, 2, 1, 4, 5))  # contains the barred pattern
    with pytest.raises(PreconditionError):
        iterated_lift((2, 1, 3), 2)  # deeper than the tail allows


def test_lift_contract_exhaustive():
    for n in range(1, 7):
        for p in perms(n):
            if not avoids_barred_3241(p):
                continue
            sigma = iterated_lift(p)
            assert stack_sort_iterate(sigma, tail_length(p)) == p
            assert avoids_barred_3241(sigma)


def test_lift_depth_one_equals_preimage():
    # lifting one level must agree with the one-pass construction
    for p in perms(5):
        if p[-1] == 5 and avoids_barred_3241(p) and tail_length(p) >= 1:
            assert iterated_lift(p, 1) == canonical_preimage(p)


def test_occurrence_propagation_small():
    # if s(sigma) has a barred occurrence through 1, sigma must as well,
    # and at least two entries >= 3 jump from left of 1 to right of 1
    from stacksortlab import barred_occurrence_involving_min
    for n in range(1, 7):
        for sigma in perms(n):
            p = stack_sort(sigma)
            if barred_occurrence_involving_min(p) is None:
                continue
            assert barred_occurrence_involving_min(sigma) is not None
            moved = [v for v in range(3, n + 1)
                     if sigma.index(v) < sigma.index(1)
                     and p.index(v) > p.index(1)]
            assert len(moved) >= 2
