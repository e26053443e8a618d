import random

import pytest
from hypothesis import given, strategies as st

from binomials import MonomialOrder, elim, grevlex, lex
from binomials.errors import InputError
from binomials.orders import e_add, zero

exponents = st.lists(st.integers(min_value=0, max_value=9),
                     min_size=3, max_size=3).map(tuple)

ORDERS = [lex(), grevlex(), lex((2, 0, 1)), grevlex((1, 2, 0)),
          elim([0]), elim([0, 2])]


def sign(order, u, v):
    ku, kv = order.key(u), order.key(v)
    return (ku > kv) - (ku < kv)


class TestFixtures:
    def test_lex(self):
        assert lex().key((1, 0)) > lex().key((0, 3))

    def test_grevlex_tiebreak(self):
        assert grevlex().key((2, 0)) > grevlex().key((1, 1))

    def test_eq(self):
        for order in ORDERS:
            assert order.key((1, 2, 3)) == order.key((1, 2, 3))
            assert order.key((1, 2, 3)) != order.key((3, 2, 1))

    def test_dimension_mismatch(self):
        # a priority of the wrong length is refused when a key is taken
        with pytest.raises(InputError):
            lex((1, 0)).key((1, 0, 0))
        with pytest.raises(InputError):
            grevlex((2, 0, 1)).key((1, 0))

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown order kind 'foo'"):
            MonomialOrder("foo").key((1, 0))

    def test_elim_blocks_dominate(self):
        order = elim([0])
        # anything containing the block variable beats anything without it
        assert order.key((1, 0, 0)) > order.key((0, 9, 9))

    def test_permuted_lex(self):
        order = lex((1, 0))
        assert order.key((5, 0)) < order.key((0, 1))

    def test_identity_priority_is_none(self):
        # one value per order: the identity priority is stored as None
        assert lex(range(3)) == lex() and grevlex(range(4)) == grevlex()
        assert lex([1, 0]).perm == (1, 0)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind + str(o.perm or ""))
class TestAdmissibility:
    @given(u=exponents, v=exponents, w=exponents)
    def test_translation_invariant(self, order, u, v, w):
        assert sign(order, u, v) == sign(order, e_add(u, w), e_add(v, w))

    @given(u=exponents)
    def test_zero_minimal(self, order, u):
        assert order.key(zero(3)) <= order.key(u)

    @given(u=exponents, v=exponents)
    def test_total_and_antisymmetric(self, order, u, v):
        c = sign(order, u, v)
        assert c == -sign(order, v, u)
        assert (c == 0) == (u == v)


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
    return (sum(masked_in), btie, _reference_key(grevlex(), masked_out))


KEY_ORDERS = [lex(), grevlex(), lex((3, 1, 0, 2)), grevlex((2, 0, 3, 1)),
              elim([0]), elim([3, 1]), elim([0, 2]), elim([1]), elim([2, 3])]


@pytest.mark.parametrize("order", KEY_ORDERS,
                         ids=lambda o: o.kind + str(o.perm or o.block or ""))
def test_key_matches_reference(order):
    r = random.Random(5)
    for _ in range(300):
        u = tuple(r.randint(0, 7) for _ in range(4))
        assert order.key(u) == _reference_key(order, u)
