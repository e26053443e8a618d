import random

import pytest
from hypothesis import given, strategies as st

from binomials import elim, grevlex, lex
from binomials.errors import InputError
from binomials.orders import EQ, GT, LT, e_add, zero

exponents = st.lists(st.integers(min_value=0, max_value=9),
                     min_size=3, max_size=3).map(tuple)

ORDERS = [lex(), grevlex(), lex((2, 0, 1)), grevlex((1, 2, 0)),
          elim([0]), elim([0, 2], lex())]


class TestFixtures:
    def test_lex(self):
        assert lex().cmp((1, 0), (0, 3)) == GT

    def test_grevlex_tiebreak(self):
        assert grevlex().cmp((2, 0), (1, 1)) == GT

    def test_eq(self):
        for order in ORDERS:
            assert order.cmp((1, 2, 3), (1, 2, 3)) == EQ

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            lex().cmp((1, 0), (1, 0, 0))

    def test_elim_blocks_dominate(self):
        order = elim([0])
        # anything containing the block variable beats anything without it
        assert order.cmp((1, 0, 0), (0, 9, 9)) == GT

    def test_permuted_lex(self):
        order = lex((1, 0))
        assert order.cmp((5, 0), (0, 1)) == LT


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind + str(o.perm or ""))
class TestAdmissibility:
    @given(u=exponents, v=exponents, w=exponents)
    def test_translation_invariant(self, order, u, v, w):
        assert order.cmp(u, v) == order.cmp(e_add(u, w), e_add(v, w))

    @given(u=exponents)
    def test_zero_minimal(self, order, u):
        assert order.cmp(zero(3), u) != GT

    @given(u=exponents, v=exponents)
    def test_total_and_antisymmetric(self, order, u, v):
        c = order.cmp(u, v)
        assert c == -order.cmp(v, u)
        assert (c == EQ) == (u == v)


def _reference_key(order, u):
    # the key as first written: sets and masked copies rebuilt on every call
    if order.kind == "lex":
        pri = range(len(u)) if order.perm is None else order.perm
        return tuple(u[i] for i in pri)
    if order.kind == "grevlex":
        pri = list(range(len(u)) if order.perm is None else order.perm)
        return (sum(u), tuple(-u[i] for i in reversed(pri)))
    blk = set(order.block)
    masked_in = tuple(x if i in blk else 0 for i, x in enumerate(u))
    masked_out = tuple(0 if i in blk else x for i, x in enumerate(u))
    btie = tuple(-u[i] for i in reversed(order.block))
    return (sum(masked_in), btie, _reference_key(order.inner, masked_out))


KEY_ORDERS = [lex(), grevlex(), lex((3, 1, 0, 2)), grevlex((2, 0, 3, 1)),
              elim([0]), elim([3, 1]), elim([0, 2], lex()),
              elim([1], grevlex((3, 2, 1, 0))), elim([2, 3], elim([0]))]


@pytest.mark.parametrize("order", KEY_ORDERS,
                         ids=lambda o: o.kind + str(o.perm or o.block or ""))
def test_key_matches_reference(order):
    r = random.Random(5)
    for _ in range(300):
        u = tuple(r.randint(0, 7) for _ in range(4))
        assert order.key(u) == _reference_key(order, u)
