"""Lazy tower naturals: int collapse, node algebra, serialization."""

import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab import towers
from forcing_lab.bits import BitString
from forcing_lab.cli import main
from forcing_lab.errors import AmbiguousNat, UsageError
from forcing_lab.towers import (LIMIT_BITS, Nat, NatTable, nat_add,
                                nat_equal, nat_half, nat_le, nat_less,
                                nat_mul_pow2, nat_parity, nat_pow2, nat_resolve,
                                nat_sub, nat_to_int)


def test_small_values_stay_ints():
    assert nat_add(2, 3) == 5
    assert nat_pow2(10) == 1024
    assert nat_mul_pow2(3, 4) == 48
    assert not isinstance(nat_pow2(LIMIT_BITS - 1), Nat)


def test_huge_values_become_nodes():
    x = nat_pow2(LIMIT_BITS + 1)
    assert isinstance(x, Nat)
    assert isinstance(nat_add(x, 5), Nat)
    assert isinstance(nat_mul_pow2(1, x), Nat)


def test_interning_gives_identity():
    a = nat_add(nat_pow2(9000), 7)
    b = nat_add(nat_pow2(9000), 7)
    assert a is b
    assert nat_equal(a, b)
    assert not nat_equal(a, nat_add(nat_pow2(9000), 8))


@given(st.integers(min_value=0, max_value=1 << 40),
       st.integers(min_value=0, max_value=1 << 40),
       st.integers(min_value=0, max_value=30))
def test_int_regime_matches_python_ints(a, b, e):
    assert nat_add(a, b) == a + b
    assert nat_mul_pow2(a, e) == a << e
    assert nat_half(a) == a // 2
    assert nat_parity(a) == a % 2
    if a >= b:
        assert nat_sub(a, b) == a - b
    assert nat_less(a, b) == (a < b)
    assert nat_le(a, b) == (a <= b)


def test_half_and_parity_of_coded_indices():
    # the decoder's j = 2*alpha + z patterns, in the symbolic regime
    alpha = nat_add(nat_pow2(8000), nat_pow2(5000), -1)
    for z in (0, 1):
        j = nat_add(nat_mul_pow2(alpha, 1), z)
        assert nat_parity(j) == z
        assert nat_half(j) is alpha


def test_parity_of_sums_with_negative_const():
    x = nat_add(nat_pow2(7777), -1)   # odd: 2^7777 - 1
    assert nat_parity(x) == 1
    assert nat_parity(nat_add(x, x)) == 0
    assert nat_parity(nat_add(x, 4)) == 1


def test_sub_cases():
    x = nat_pow2(6000)
    assert nat_sub(x, x) == 0
    y = nat_sub(x, 17)
    assert isinstance(y, Nat)
    s = nat_add(x, nat_pow2(7000), 3)
    assert nat_sub(s, x) is nat_add(nat_pow2(7000), 3)
    with pytest.raises(AmbiguousNat):
        nat_sub(nat_pow2(6001), x)
    with pytest.raises(AmbiguousNat):
        nat_sub(5, 9)


def test_mixed_comparisons():
    x = nat_pow2(5000)
    assert nat_less(123456, x)
    assert not nat_less(x, 123456)
    assert nat_le(x, x)
    with pytest.raises(AmbiguousNat):
        nat_less(x, nat_pow2(5001))
    with pytest.raises(AmbiguousNat):
        nat_to_int(x)


def test_mul2_folds_nested_shifts():
    x = nat_mul_pow2(nat_mul_pow2(3, 5000), 6000)
    y = nat_mul_pow2(3, 11000)
    assert x is y


def test_nat_table_roundtrip_reinterns():
    alpha = nat_add(nat_pow2(9100), -1, nat_pow2(8100))
    j = nat_add(nat_mul_pow2(alpha, 1), 1)
    table = NatTable()
    refs = [table.encode(v) for v in (alpha, j, alpha)]
    assert refs[0] == refs[2]  # shared node, same id
    rebuilt = NatTable.decode_all(table.nodes)
    assert rebuilt[refs[0]["$nat"]] is alpha
    assert rebuilt[refs[1]["$nat"]] is j
    for bad in ({"$nat": len(rebuilt)}, {"$nat": -1}, {"nat": 0}, "7"):
        with pytest.raises(UsageError):
            nat_resolve(bad, rebuilt)


def test_repr_is_safe_for_towers():
    x = nat_pow2(9000)
    for _ in range(4):
        x = nat_pow2(nat_add(x, 1))
    assert "Nat" in repr(x)


def _wide_run(tmp_path, payload, *seed):
    """One 12-step entangle-wide run and its verify, through the CLI."""
    fam = tmp_path / "len16.json"
    fam.write_text(json.dumps(
        {"carrier": "cohen", "sets": [{"type": "min-length"}] * 16}))
    out = tmp_path / "wide.json"
    assert main(["entangle-wide", "--family", str(fam), "--payload", payload,
                 "--steps", "12", "--out", str(out), *seed]) == 0
    assert main(["verify", "--trace", str(out)]) == 0
    assert json.loads(out.read_text())["nats"]  # the run made nodes
    out.unlink()


def test_repeated_wide_runs_leave_the_intern_table_empty(tmp_path):
    for payload in ("bits:101101010101", "bits:000011110000",
                    "bits:" + "1" * 12):
        _wide_run(tmp_path, payload)
    gc.collect()
    assert len(towers._INTERN) == 0


def test_repeated_seeded_wide_runs_leave_the_intern_table_empty(tmp_path):
    """The key states that seeded densify keys hand along the chains pin
    no node once the run's strings are gone."""
    for i in range(10):
        _wide_run(tmp_path, f"seed:p{i}", "--seed", f"s{i}")
        gc.collect()
        assert len(towers._INTERN) == 0


# ("add", i, j, const) or ("mul", i, j): operands index the values so far
_STEP = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 99), st.integers(0, 99),
              st.integers(0, 3)),
    st.tuples(st.just("mul"), st.integers(0, 99), st.integers(0, 99)))


def _build(steps):
    vals = [0, 1, 5, nat_pow2(LIMIT_BITS + 1), nat_pow2(LIMIT_BITS + 7)]
    for op, i, j, *const in steps:
        x, y = vals[i % len(vals)], vals[j % len(vals)]
        vals.append(nat_add(x, y, *const) if op == "add"
                    else nat_mul_pow2(x, y))
    return vals


def _structure(x):
    """Canonical text of x's DAG, independent of which objects hold it."""
    table = NatTable()
    return json.dumps([table.encode(x), table.nodes])


@given(st.lists(_STEP, min_size=1, max_size=12),
       st.lists(st.booleans(), min_size=17, max_size=17))
def test_interning_survives_collection(steps, keep):
    first = _build(steps)
    kept = {i: v for i, v in enumerate(first) if keep[i]}
    del first
    gc.collect()
    vals = _build(steps)
    for i, v in kept.items():
        assert vals[i] is v or (type(v) is int and vals[i] == v)
    huge = [v for v in vals if isinstance(v, Nat)]
    for a in huge:
        for b in huge:
            same = _structure(a) == _structure(b)
            assert same == (a is b)
            sa, sb = BitString(((0, a), (1, 3))), BitString(((0, b), (1, 3)))
            assert (sa == sb) == same
            if same:
                assert hash(sa) == hash(sb)
    table = NatTable()
    refs = [table.encode(v) for v in vals]
    built = NatTable.decode_all(table.nodes)
    assert all(nat_resolve(r, built) is v for r, v in zip(refs, vals)
               if isinstance(v, Nat))


def test_the_intern_table_holds_one_weak_entry_per_live_node():
    """One live node per structure, and an entry only while its node
    lives: dropping the values empties the table with the cycle collector
    off, and a structure rebuilt after its node died is entered again."""
    gc.collect()
    assert len(towers._INTERN) == 0
    gc.disable()
    try:
        a = nat_add(nat_pow2(9000), 7)
        b = nat_add(nat_pow2(9000), 7)
        assert a is b
        assert len(towers._INTERN) == 2  # the add node and its mul2 child
        del a, b
        assert len(towers._INTERN) == 0
        c = nat_add(nat_pow2(9000), 7)
        assert len(towers._INTERN) == 2
        assert any(ref() is c for ref in towers._INTERN.values())
        assert nat_add(nat_pow2(9000), 7) is c
        del c
        assert len(towers._INTERN) == 0
    finally:
        gc.enable()


def test_a_node_the_cycle_collector_frees_leaves_the_table():
    gc.collect()
    box = [nat_pow2(9000)]
    box.append(box)
    del box
    assert len(towers._INTERN) == 1
    gc.collect()
    assert len(towers._INTERN) == 0


@pytest.mark.xfail(strict=True, reason="mul2 keeps an even int argument, so "
                   "2 * 2^4999 and 2^5000 are two nodes (ROADMAP item 5)")
def test_equal_powers_of_two_are_nat_equal():
    assert nat_equal(nat_mul_pow2(2, 4999), nat_pow2(5000))


@pytest.mark.xfail(strict=True, reason="add keeps its children in call "
                   "order, so x + y and y + x are two nodes (ROADMAP item 5)")
def test_sums_in_either_order_are_nat_equal():
    x, y = nat_pow2(5000), nat_pow2(6000)
    assert nat_equal(nat_add(x, y), nat_add(y, x))


LOW_LIMIT = 160

# operands index the values so far; exponents stay ints, so that every
# value has a Python int to check against
_LOW_STEP = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 99), st.integers(0, 99),
              st.integers(0, 3)),
    st.tuples(st.just("mul"), st.integers(0, 99),
              st.integers(0, 2 * LOW_LIMIT)),
    st.tuples(st.just("pow2"), st.integers(0, 2 * LOW_LIMIT)),
    st.tuples(st.just("half"), st.integers(0, 99)),
    st.tuples(st.just("sub"), st.integers(0, 99), st.integers(0, 99)))


def _int_value(x):
    """The int a lazy natural stands for; its exponents must be ints."""
    if isinstance(x, int):
        return x
    if x.kind == "add":
        return sum(_int_value(c) for c in x.children) + x.const
    return _int_value(x.arg) << _int_value(x.exp)


def _low_seeds():
    """Ints on both sides of the comparison bound and of the limit (as
    `nat_add` of ints may give), and nodes just past the limit."""
    return [0, 1, 5, 2 ** 63, 2 ** 64, 2 ** 100, 2 ** LOW_LIMIT - 1,
            2 ** (LOW_LIMIT + 2) + 1,
            nat_pow2(LOW_LIMIT), nat_mul_pow2(3, LOW_LIMIT + 9),
            nat_add(nat_pow2(LOW_LIMIT + 1), 2)]


def _agrees(op, want, *args):
    """op(*args) as a value equal to `want`, or None where it raised
    AmbiguousNat."""
    try:
        got = op(*args)
    except AmbiguousNat:
        return None
    assert _int_value(got) == want, (op.__name__, args)
    if isinstance(got, Nat):
        # the soundness contract that mixed comparisons rest on
        assert got.kind in ("add", "mul2")
        assert want > 2 ** (LOW_LIMIT - 64)
    return got


@settings(max_examples=150, deadline=None)
@given(st.lists(_LOW_STEP, min_size=1, max_size=14))
def test_lazy_naturals_agree_with_ints_at_a_lowered_limit(steps):
    """Random expression DAGs at LIMIT_BITS = 160: each `nat_*` function
    agrees with Python ints or raises AmbiguousNat (`nat_to_int` raises
    exactly for nodes), and `nat_equal` answers True only for equal
    values."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(towers, "LIMIT_BITS", LOW_LIMIT)
        mp.setattr(towers, "_SMALL_CMP_BOUND", 1 << (LOW_LIMIT - 96))
        vals = _low_seeds()
        for op, *args in steps:
            x = vals[args[0] % len(vals)]
            if op == "pow2":
                got = _agrees(nat_pow2, 1 << args[0], args[0])
            elif op == "mul":
                got = _agrees(nat_mul_pow2, _int_value(x) << args[1], x,
                              args[1])
            elif op == "half":
                got = _agrees(nat_half, _int_value(x) // 2, x)
            else:
                y = vals[args[1] % len(vals)]
                a, b = _int_value(x), _int_value(y)
                if op == "add":
                    got = _agrees(nat_add, a + b + args[2], x, y, args[2])
                else:
                    got = _agrees(nat_sub, a - b, x, y)
                    assert got is None or a >= b
            if got is not None:
                vals.append(got)
        for x in vals:
            a = _int_value(x)
            assert nat_parity(x) == a % 2
            assert (_agrees(nat_to_int, a, x) is not None
                    or isinstance(x, Nat))
            for y in vals:
                b = _int_value(y)
                _agrees(nat_less, a < b, x, y)
                _agrees(nat_le, a <= b, x, y)
                if nat_equal(x, y):
                    assert a == b
