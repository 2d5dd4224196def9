import random

import numpy as np
import pytest

from fatpoints.model import binomial, conditions_count
from fatpoints.monomials import derivative_orders, monomial_basis

from _oracles import derivative_coefficient, derivative_coefficient_symbolic


def test_basis_sizes():
    assert monomial_basis(1).shape == (4, 4)
    assert monomial_basis(2).shape == (10, 4)
    assert monomial_basis(14).shape == (680, 4)
    for d in range(0, 41):
        assert monomial_basis(d).shape[0] == binomial(d + 3, 3)


def test_basis_entries_sum_to_degree():
    for d in (0, 1, 3, 7, 14):
        basis = monomial_basis(d)
        assert (basis.sum(axis=1) == d).all()
        assert (basis >= 0).all()
        # no duplicates
        assert len({tuple(row) for row in basis.tolist()}) == basis.shape[0]


def test_basis_order_stable_and_lex_descending():
    basis = monomial_basis(3)
    rows = [tuple(r) for r in basis.tolist()]
    assert rows == sorted(rows, reverse=True)
    assert rows[0] == (3, 0, 0, 0)
    assert rows[-1] == (0, 0, 0, 3)
    again = [tuple(r) for r in monomial_basis(3).tolist()]
    assert rows == again


def test_basis_is_cached_and_read_only():
    for d in range(15):
        basis = monomial_basis(d)
        assert monomial_basis(d) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 1
        fresh = [(a0, a1, a2, d - a0 - a1 - a2)
                 for a0 in range(d, -1, -1)
                 for a1 in range(d - a0, -1, -1)
                 for a2 in range(d - a0 - a1, -1, -1)]
        assert basis.tolist() == [list(row) for row in fresh]


def test_derivative_orders_are_cached_and_read_only():
    for m in range(1, 12):
        orders = derivative_orders(m)
        assert derivative_orders(m) is orders
        with pytest.raises(ValueError):
            orders[0, 0] = 1
        fresh = [(b0, b1, total - b0 - b1, 0)
                 for total in range(m)
                 for b0 in range(total, -1, -1)
                 for b1 in range(total - b0, -1, -1)]
        assert orders.tolist() == [list(row) for row in fresh]


def test_derivative_orders_counts():
    assert derivative_orders(1).tolist() == [[0, 0, 0, 0]]
    assert derivative_orders(2).shape == (4, 4)
    assert derivative_orders(4).shape == (20, 4)
    for m in range(1, 21):
        orders = derivative_orders(m)
        assert orders.shape[0] == conditions_count(m)
        assert (orders[:, 3] == 0).all()
        assert (orders[:, :3].sum(axis=1) <= m - 1).all()
        assert len({tuple(r) for r in orders.tolist()}) == orders.shape[0]


def test_derivative_orders_graded():
    orders = derivative_orders(3)
    totals = orders[:, :3].sum(axis=1)
    assert (np.diff(totals) >= 0).all()


def test_derivative_coefficient_examples():
    assert derivative_coefficient((2, 0, 0, 0), (1, 0, 0, 0)) == 2
    assert derivative_coefficient((1, 1, 0, 0), (2, 0, 0, 0)) == 0
    assert derivative_coefficient((3, 2, 0, 0), (2, 1, 0, 0)) == 12
    assert derivative_coefficient((5, 1, 2, 0), (0, 0, 0, 0)) == 1
    with pytest.raises(ValueError):
        derivative_coefficient((1, 2, 3), (0, 0, 0, 0))


def test_derivative_coefficient_against_symbolic_oracle():
    rng = random.Random(5)
    for _ in range(400):
        alpha = tuple(rng.randrange(0, 11) for _ in range(4))
        beta = tuple(rng.randrange(0, 5) for _ in range(4))
        assert derivative_coefficient(alpha, beta) == derivative_coefficient_symbolic(
            alpha, beta
        )
