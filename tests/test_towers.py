"""Lazy tower naturals: int collapse, node algebra, serialization."""

import gc
import json

import pytest
from hypothesis import given, strategies as st

from forcing_lab import towers
from forcing_lab.bits import BitString
from forcing_lab.cli import main
from forcing_lab.errors import AmbiguousNat, UsageError
from forcing_lab.towers import (LIMIT_BITS, Nat, NatTable, is_huge, nat_add,
                                nat_equal, nat_half, nat_le, nat_less,
                                nat_mul_pow2, nat_parity, nat_pow2, nat_resolve,
                                nat_sub, nat_to_int)


def test_small_values_stay_ints():
    assert nat_add(2, 3) == 5
    assert nat_pow2(10) == 1024
    assert nat_mul_pow2(3, 4) == 48
    assert not is_huge(nat_pow2(LIMIT_BITS - 1))


def test_huge_values_become_nodes():
    x = nat_pow2(LIMIT_BITS + 1)
    assert is_huge(x)
    assert is_huge(nat_add(x, 5))
    assert is_huge(nat_mul_pow2(1, x))


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
    assert is_huge(y)
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
