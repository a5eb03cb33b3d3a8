"""Wide-poset coding: worked tower values, round trips, consistency traps."""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab import posets, towers, wide
from forcing_lab.bits import BitStream, BitString, PayloadSource
from forcing_lab.cli import ENV_SEED, main
from forcing_lab.dense import DenseFamily, DenseSet, min_length_family
from forcing_lab.errors import (AmbiguousNat, ConsistencyFailure,
                                FamilyTooSmall, NoAntichainHit, UsageError,
                                WitnessViolation)
from forcing_lab.posets import (WidenessWitness, cohen_poset,
                                cohen_wide_witness)
from forcing_lab.trace import load_trace
from forcing_lab.towers import NatTable, is_huge, nat_equal, nat_mul_pow2
from forcing_lab.verify import verify_trace
from forcing_lab.wide import decode_wide, entangle_wide

WITNESS = cohen_wide_witness()
FAMILIES = Path(__file__).resolve().parents[1] / "docs" / "families"


def antichain_hits(chain, witness, base, poset):
    """All antichain indices below `base` hit by chain elements, each once."""
    hits = []
    for el in chain:
        k = witness.locate(base, el)
        if k is not None and poset.leq(el, witness.antichain(base, k)):
            if not any(nat_equal(k, seen) for seen in hits):
                hits.append(k)
    return hits


def test_worked_round_zero_and_one():
    fam = min_length_family(10)
    trace = entangle_wide(cohen_poset(), WITNESS, fam,
                          BitStream.from_prefix("110"), 3)
    g, h = trace.g_chain, trace.h_chain
    assert g[0].to01() == "0" and h[0].to01() == "0"
    step0 = trace.stages[0]
    assert step0["alpha"] == 1 and step0["j"] == 3 and step0["beta"] == 32
    assert g[1].to01() == "00001"
    assert h[1] == BitString.from01("0").append_run(0, 32).append_bit(1)
    assert h[1].length == 34
    # round 1: alpha = index(q_1) = 2^34, j = 2*alpha + z(1)
    step1 = trace.stages[1]
    assert step1["alpha"] == 2 ** 34
    assert step1["j"] == 2 ** 35 + 1  # z(1) = 1
    assert g[2].length == 5 + (2 ** 35 + 1) + 1
    # round 2 leaves the concrete regime entirely
    assert is_huge(trace.stages[2]["beta"])
    assert is_huge(h[2].length)


def test_payload_parity_only_flips_antichain_index():
    fam = min_length_family(6)
    t0 = entangle_wide(cohen_poset(), WITNESS, fam,
                       BitStream.from_prefix("0"), 1)
    t1 = entangle_wide(cohen_poset(), WITNESS, fam,
                       BitStream.from_prefix("1"), 1)
    assert t0.stages[0]["j"] + 1 == t1.stages[0]["j"]
    assert nat_equal(t0.stages[0]["j"],
                     nat_mul_pow2(t0.stages[0]["alpha"], 1))


def test_chains_descend_and_meet_sets():
    fam = min_length_family(16)
    trace = entangle_wide(cohen_poset(), WITNESS, fam,
                          BitStream.seeded("wd"), 12)
    g, h = trace.g_chain, trace.h_chain
    for chain in (g, h):
        for n in range(12):
            assert chain[n + 1].proper_end_extends(chain[n])
            assert fam[n].member(chain[n])
        assert fam[12].member(chain[12])


def test_decode_roundtrip_with_towers():
    fam = min_length_family(16)
    payload = PayloadSource.from_bits("101101001101")
    trace = entangle_wide(cohen_poset(), WITNESS, fam, payload, 12)
    g, h = trace.g_chain, trace.h_chain
    replay = decode_wide(g, h, cohen_poset(), WITNESS, fam, 12)
    triples = list(zip(replay.g_chain, replay.h_chain, replay.payload_bits))
    assert [z for _, _, z in triples] == trace.payload_bits
    for n, (p, q, _) in enumerate(triples):
        assert p == g[n]
        assert q == h[n]


def test_roundtrip_with_randomized_densifiers():
    """Seeded densifier freedom must be replayable by the decoder."""
    fam = min_length_family(12, seed="wide-free")
    trace = entangle_wide(cohen_poset(), WITNESS, fam,
                          BitStream.seeded("wf"), 8)
    g, h = trace.g_chain, trace.h_chain
    replay = decode_wide(g, h, cohen_poset(), WITNESS, fam, 8)
    triples = list(zip(replay.g_chain, replay.h_chain, replay.payload_bits))
    assert [z for _, _, z in triples] == trace.payload_bits
    assert all(p == g[n] and q == h[n] for n, (p, q, _) in enumerate(triples))


def test_seeded_densify_keys_build_no_dicts(monkeypatch):
    """The keys that seed densifier freedom are written as text: with
    `json.dumps` and `NatTable.encode` raising, a seeded 5-step run builds
    and verifies, hashing keys whose nat tables are not empty."""
    def refuse(*args, **kwargs):
        raise AssertionError("a densify key went through the dict dump")

    keys = []
    stable_key = BitString.stable_key
    monkeypatch.setattr(BitString, "stable_key",
                        lambda s: keys.append(stable_key(s)) or keys[-1])
    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(NatTable, "encode", refuse)
    fam = min_length_family(6, seed="no-dicts")
    trace = entangle_wide(cohen_poset(), WITNESS, fam, "10110", 5)
    report = verify_trace(trace)
    assert report.all_passed, report.summary()
    assert any('"$nat"' in key for key in keys)


@pytest.mark.parametrize("seed", [None, "linear"])
def test_densify_keys_write_each_node_text_about_once(monkeypatch, seed):
    """Each densify key writes only the node texts of what the last append
    added, so doubling the steps of a run about doubles the node texts its
    keys write (at most 2.5x), where rewriting every key whole made it
    grow as the square."""
    calls = []
    node_text = towers._node_text
    monkeypatch.setattr(towers, "_node_text",
                        lambda *args: calls.append(1) or node_text(*args))
    counts = []
    for steps in (40, 80):
        calls.clear()
        entangle_wide(cohen_poset(), WITNESS,
                      min_length_family(steps + 1, seed=seed),
                      BitStream.seeded("lin"), steps)
        counts.append(len(calls))
    assert 0 < counts[0] and counts[1] <= 2.5 * counts[0]


def test_antichain_hit_uniqueness():
    fam = min_length_family(10)
    trace = entangle_wide(cohen_poset(), WITNESS, fam,
                          BitStream.seeded("uniq"), 6)
    g, h = trace.g_chain, trace.h_chain
    for n in range(6):
        assert len(antichain_hits(g, WITNESS, g[n], cohen_poset())) == 1
        assert len(antichain_hits(h, WITNESS, h[n], cohen_poset())) == 1


def test_same_chain_on_both_sides_fails():
    fam = min_length_family(8)
    trace = entangle_wide(cohen_poset(), WITNESS, fam,
                          BitStream.seeded("gg"), 4)
    g = trace.g_chain
    with pytest.raises((ConsistencyFailure, NoAntichainHit)):
        decode_wide(g, g, cohen_poset(), WITNESS, fam, 4)


def test_decoder_needs_both_chains_in_order():
    fam = min_length_family(8)
    trace = entangle_wide(cohen_poset(), WITNESS, fam,
                          BitStream.seeded("swap"), 4)
    g, h = trace.g_chain, trace.h_chain
    with pytest.raises((ConsistencyFailure, NoAntichainHit)):
        decode_wide(h, g, cohen_poset(), WITNESS, fam, 4)


def test_a_branch_not_properly_below_is_a_witness_violation():
    """A witness whose antichain member below q is q itself fails the
    walk's check, both when building and when decoding chains built with
    the registered witness, whose hits its `locate` still finds."""
    fam = min_length_family(6)
    flat = WidenessWitness("flat", lambda q, k: q, WITNESS.locate)
    with pytest.raises(WitnessViolation, match=r"A_p\(0\)"):
        entangle_wide(cohen_poset(), flat, fam, "10", 2)
    trace = entangle_wide(cohen_poset(), WITNESS, fam, "10", 2)
    with pytest.raises(WitnessViolation, match=r"A_p\(0\)"):
        decode_wide(trace.g_chain, trace.h_chain, cohen_poset(), flat, fam, 2)


def trivial_family(count):
    """Every condition is in every set; densifiers are the identity."""
    sets = [DenseSet(i, lambda s: True, lambda s: s, spec={"type": "trivial"})
            for i in range(count)]
    return DenseFamily(sets, "poset", entries=[s.spec for s in sets])


def test_round_zero_against_closed_form_oracle():
    """Independent arithmetic for round 0 with identity densifiers."""
    fam = trivial_family(2)
    for z in (0, 1):
        trace = entangle_wide(cohen_poset(), WITNESS, fam,
                              BitStream.from_prefix(str(z)), 1)
        g, h = trace.g_chain, trace.h_chain
        # independent: index(s) = 2^|s| - 1 + value(s), antichain = q 0^k 1
        p0 = ""
        alpha = (1 << len(p0)) - 1 + (int(p0, 2) if p0 else 0)
        j = 2 * alpha + z
        p1 = p0 + "0" * j + "1"
        beta = (1 << len(p1)) - 1 + int(p1, 2)
        q1 = p0 + "0" * beta + "1"
        assert g[0].to01() == p0 and h[0].to01() == p0
        assert g[1].to01() == p1
        assert h[1].to01() == q1
        assert trace.stages[0]["j"] == j
        assert trace.stages[0]["beta"] == beta


def test_chain_filter_meets_family_to_horizon():
    """Each chain meets D_n at its own n-th element, n <= 50."""
    fam = min_length_family(52)
    trace = entangle_wide(cohen_poset(), WITNESS, fam,
                          BitStream.seeded("mf"), 50)
    for chain in (trace.g_chain, trace.h_chain):
        assert all(fam[n].member(chain[n]) for n in range(51))


def test_no_hit_within_budget():
    """A budget of one reads only the chain's first element, the start,
    which no antichain member below the start lies above; step n hits at
    element n + 1, so two steps need a budget of three."""
    fam = trivial_family(4)
    trace = entangle_wide(cohen_poset(), WITNESS, fam, BitStream.constant(1), 2)
    g, h = trace.g_chain, trace.h_chain
    with pytest.raises(NoAntichainHit):
        decode_wide(g, h, cohen_poset(), WITNESS, fam, 2, budget=1)
    assert decode_wide(g, h, cohen_poset(), WITNESS, fam, 2,
                       budget=3).payload_bits


def test_family_size_guards():
    with pytest.raises(FamilyTooSmall):
        entangle_wide(cohen_poset(), WITNESS, min_length_family(3),
                      BitStream.constant(0), 3)
    with pytest.raises(UsageError):
        entangle_wide(cohen_poset(), WITNESS, min_length_family(3),
                      BitStream.constant(0), 0)


COHEN_SETS = st.one_of(
    st.just({"type": "min-length"}),
    st.builds(lambda w: {"type": "pattern", "word": w},
              st.text(alphabet="01", min_size=1, max_size=3)),
    st.builds(lambda t: {"type": "parity", "parity": t}, st.integers(0, 1)))


@given(steps=st.integers(1, 6), data=st.data(),
       seed=st.one_of(st.none(), st.sampled_from(["w", "s7", "é"])))
@settings(max_examples=12, deadline=None)
def test_random_wide_families_verify_and_decode_through_the_cli(
        tmp_path_factory, steps, data, seed):
    """entangle-wide on random min-length, pattern and parity families,
    seeded or not, with a random payload: the trace verifies,
    decode-wide returns the payload, and `decode_wide` replays the loaded
    trace's stage records, chains and payload bits exactly."""
    _check_wide_cli_flow(tmp_path_factory, steps, data, seed)


@given(steps=st.integers(1, 6), data=st.data(),
       seed=st.one_of(st.none(), st.sampled_from(["w", "s7", "é"])))
@settings(max_examples=12, deadline=None)
def test_random_wide_families_verify_and_decode_at_a_lowered_limit(
        tmp_path_factory, steps, data, seed):
    """The random CLI flows above at LIMIT_BITS = 160, `_SMALL_CMP_BOUND`
    set by its formula: a value past 2^160 is a Nat, and an int at or
    past 2^64 does not compare with one."""
    low = 160
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(towers, "LIMIT_BITS", low)
        mp.setattr(towers, "_SMALL_CMP_BOUND", 1 << (low - 96))
        _check_wide_cli_flow(tmp_path_factory, steps, data, seed)


def _check_wide_cli_flow(tmp_path_factory, steps, data, seed):
    sets = data.draw(st.lists(COHEN_SETS, min_size=steps + 1,
                              max_size=steps + 3))
    payload = data.draw(st.text(alphabet="01", min_size=steps,
                                max_size=steps))
    tmp = tmp_path_factory.mktemp("wide")
    family, out = tmp / "family.json", str(tmp / "wide.json")
    family.write_text(json.dumps({"carrier": "cohen", "seed": seed,
                                  "sets": sets}))
    with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()) as text:
        os.environ.pop(ENV_SEED, None)
        assert main(["entangle-wide", "--family", str(family),
                     "--payload", "bits:" + payload, "--steps", str(steps),
                     "--out", out]) == 0
        assert main(["verify", "--trace", out]) == 0
        assert main(["decode-wide", "--trace", out]) == 0
    assert text.getvalue().splitlines()[-1] == f"decoded z bits: {payload}"
    trace = load_trace(out)
    replay = decode_wide(trace.g_chain, trace.h_chain, trace.poset,
                         trace.witness, trace.family, steps)
    assert replay.stages == trace.stages
    assert replay.conditions == trace.conditions
    assert replay.payload_bits == trace.payload_bits
    assert replay.payload_source is None


@pytest.mark.parametrize("name, steps, seed", [("len8", 1, None),
                                              ("len8", 7, "s"),
                                              ("len52", 12, None)])
def test_verify_densifies_each_step_once(tmp_path, name, steps, seed):
    """verify of an n-step CLI-written wide trace densifies 2n + 1 times:
    the start, then each step's two branches in the decoder's walk. The
    chains' last pair is compared with the walk's, not densified again."""
    family, out = FAMILIES / f"{name}.json", str(tmp_path / "wide.json")
    with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()):
        os.environ.pop(ENV_SEED, None)
        assert main(["entangle-wide", "--family", str(family),
                     "--payload", "seed:5", "--steps", str(steps),
                     "--out", out] + (["--seed", seed] if seed else [])) == 0
        with mock.patch.object(DenseSet, "densify", autospec=True,
                               side_effect=DenseSet.densify) as densify:
            assert main(["verify", "--trace", out]) == 0
    assert densify.call_count == 2 * steps + 1


def test_build_and_verify_encode_each_chain_element_once(tmp_path):
    """A 12-step entangle-wide and its verify each encode every chain
    element past the start once, in the walk: 24 `cohen_index` calls."""
    family, out = FAMILIES / "len52.json", str(tmp_path / "wide.json")
    counts = []
    with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()):
        os.environ.pop(ENV_SEED, None)
        for argv in (["entangle-wide", "--family", str(family), "--payload",
                      "seed:5", "--steps", "12", "--out", out],
                     ["verify", "--trace", out]):
            with mock.patch.object(posets, "cohen_index", autospec=True,
                                   side_effect=posets.cohen_index) as encode:
                assert main(argv) == 0
            counts.append(encode.call_count)
    assert counts == [24, 24]


def test_verify_reads_hits_past_the_decoders_default_budget(tmp_path):
    """`verify` lets the decoder search the whole chain for each hit, so
    the hit of step n, at chain element n + 1, is found however long the
    trace: with the default budget cut to 5, a 5-step trace (last hit at
    element 5) still passes, as any trace of 1,024 steps or more must
    past the default of 1,024."""
    out = str(tmp_path / "wide.json")
    text = io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(text):
        os.environ.pop(ENV_SEED, None)
        assert main(["entangle-wide", "--family", str(FAMILIES / "len8.json"),
                     "--payload", "bits:10110", "--steps", "5",
                     "--out", out]) == 0
        trace = load_trace(out)
        with mock.patch.object(decode_wide, "__defaults__", (5,)):
            with pytest.raises(NoAntichainHit):
                decode_wide(trace.g_chain, trace.h_chain, trace.poset,
                            trace.witness, trace.family, 5)
            assert main(["verify", "--trace", out]) == 0
    assert text.getvalue().endswith("PASS: 3/3 checks passed\n")


def test_each_hit_is_one_locate_call(tmp_path):
    """`decode_wide` searches each hit past the chain elements that equal
    the walk's own conditions, so a 12-step trace makes 24 `locate` calls
    under `verify` and 24 under `decode-wide`, one per hit, where a search
    from element 0 made 180."""
    family = tmp_path / "len16.json"
    family.write_text(json.dumps(
        {"carrier": "cohen", "sets": [{"type": "min-length"}] * 16}))
    out = str(tmp_path / "wide.json")
    counts = []
    with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()):
        os.environ.pop(ENV_SEED, None)
        assert main(["entangle-wide", "--family", str(family), "--payload",
                     "bits:101101010101", "--steps", "12", "--out", out]) == 0
        for argv in (["verify", "--trace", out],
                     ["decode-wide", "--trace", out]):
            with mock.patch.object(posets, "_cohen_locate",
                                   side_effect=posets._cohen_locate) as locate:
                assert main(argv) == 0
            counts.append(locate.call_count)
    assert counts == [24, 24]


def full_scan(chain, witness, base, poset, budget, start=0):
    """`_find_hit` as it read every chain from element 0: the reference
    the skip of `decode_wide` must agree with."""
    for el in chain[:budget]:
        try:
            k = witness.locate(base, el)
        except AmbiguousNat:
            continue
        if k is not None and poset.leq(el, witness.antichain(base, k)):
            return k
    return None


def _replay(g, h, fam, count, budget):
    """decode_wide's replay as comparable values, or its exception."""
    try:
        replay = decode_wide(g, h, cohen_poset(), WITNESS, fam, count, budget)
    except Exception as exc:  # compared by class and text
        return type(exc), str(exc)
    return replay.stages, replay.conditions, replay.payload_bits


@pytest.fixture(scope="module")
def edit_runs():
    """The family, then the edited run and runs whose walks leave it at
    steps 5, 2 and 0; built per module, so that no node they hold lives
    through the other modules' intern-table tests."""
    family = min_length_family(10)
    return family, [entangle_wide(cohen_poset(), WITNESS, family, payload, 6)
                    for payload in ("bits:101101", "bits:101100",
                                    "bits:100101", "bits:011100")]


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(
           st.sampled_from(["drop", "dup", "swap", "other", "run"]),
           st.sampled_from("gh"), st.integers(0, 6), st.integers(0, 20)),
           min_size=1, max_size=3),
       count=st.integers(1, 6), budget=st.sampled_from([2, 4, 1024]))
def test_edited_chains_replay_as_a_full_scan_does(edit_runs, edits, count,
                                                  budget):
    """Chains edited by dropping an element, duplicating one, swapping
    neighbours, or putting in the other chain's or another run's element
    replay as the search from element 0 replays them: the same stages,
    chains and z bits, or the same exception class and text."""
    family, runs = edit_runs
    chains = {"g": list(runs[0].g_chain), "h": list(runs[0].h_chain)}
    for kind, name, i, k in edits:
        chain, other = chains[name], chains["h" if name == "g" else "g"]
        i %= len(chain)
        if kind == "drop" and len(chain) > 1:
            del chain[i]
        elif kind == "dup":
            chain.insert(i, chain[i])
        elif kind == "swap" and i + 1 < len(chain):
            chain[i], chain[i + 1] = chain[i + 1], chain[i]
        elif kind == "other":
            chain[i] = other[k % len(other)]
        elif kind == "run":
            run = runs[1 + k % 3]
            chain[i] = run.conditions[name][k % len(run.conditions[name])]
    got = _replay(chains["g"], chains["h"], family, count, budget)
    with mock.patch.object(wide, "_find_hit", full_scan):
        want = _replay(chains["g"], chains["h"], family, count, budget)
    assert got == want
