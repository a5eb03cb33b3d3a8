"""CLI behavior: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from forcing_lab import bits, cli
from forcing_lab.bits import _MATERIALIZE_LIMIT, stream_from_json
from forcing_lab.cli import ENV_SEED, main

FAMILIES = Path(__file__).resolve().parents[1] / "docs" / "families"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def len_family(tmp_path):
    path = tmp_path / "len.json"
    path.write_text(json.dumps(
        {"carrier": "cohen", "sets": [{"type": "min-length"}] * 8}))
    return str(path)


@pytest.fixture()
def plane_family(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(
        {"carrier": "plane", "sets": [{"type": "square"}] * 6}))
    return str(path)


def test_pair_build_then_verify(tmp_path, len_family, capsys):
    out = str(tmp_path / "t.json")
    assert main(["entangle-pair", "--family", len_family,
                 "--payload", "hex:ff", "--stages", "8", "--out", out]) == 0
    assert main(["verify", "--trace", out]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "pair-decode-roundtrip" in text


def test_decode_pair_zeros_is_no_marker(tmp_path, capsys):
    zeros = tmp_path / "zeros.bits"
    zeros.write_text("0" * 64 + "\n")
    rc = main(["decode-pair", "--c", str(zeros), "--d", str(zeros),
               "--count", "1", "--scan-budget", "256"])
    assert rc == 1
    assert "no marker" in capsys.readouterr().err


def test_tampered_trace_fails_verify(tmp_path, len_family, capsys):
    out = tmp_path / "t.json"
    main(["entangle-pair", "--family", len_family,
          "--payload", "bits:1111111111111111", "--stages", "8",
          "--out", str(out)])
    obj = json.loads(out.read_text())
    # flip one padding-region bit (inside the zero block before a marker)
    stream = next(s for s in obj["streams"] if s["name"] == "d")
    prefix = stream["prefix"]
    s0 = obj["boundaries"][0]
    assert prefix[s0 - 1] == "0"
    stream["prefix"] = prefix[:s0 - 1] + "1" + prefix[s0:]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj))
    assert main(["verify", "--trace", str(tampered)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_many_build_verify_and_decode_files(tmp_path, capsys):
    fam = tmp_path / "prod.json"
    fam.write_text(json.dumps({"carrier": "product", "arity": 2,
                               "sets": [{"type": "min-length"}] * 6}))
    out = tmp_path / "many.json"
    assert main(["entangle-many", "--k", "3", "--family", str(fam),
                 "--payload", "seed:7", "--stages", "6",
                 "--out", str(out)]) == 0
    assert main(["verify", "--trace", str(out)]) == 0
    obj = json.loads(out.read_text())
    files = []
    for s in obj["streams"]:
        p = tmp_path / f"s{s['name']}.bits"
        p.write_text(s["prefix"] + "\n")
        files.append(str(p))
    capsys.readouterr()
    assert main(["decode-many", "--streams", *files, "--count", "18"]) == 0
    got = capsys.readouterr().out
    want = "".join(str(b) for b in obj["payload_bits"])
    assert want in got


def test_wide_build_verify_decode(tmp_path, len_family, capsys):
    fam = tmp_path / "len60.json"
    fam.write_text(json.dumps(
        {"carrier": "cohen", "sets": [{"type": "min-length"}] * 16}))
    out = tmp_path / "wide.json"
    assert main(["entangle-wide", "--family", str(fam),
                 "--payload", "bits:101101010101", "--steps", "12",
                 "--out", str(out)]) == 0
    assert main(["verify", "--trace", str(out)]) == 0
    capsys.readouterr()
    assert main(["decode-wide", "--trace", str(out)]) == 0
    assert "101101010101" in capsys.readouterr().out


@pytest.mark.parametrize("count, want", [([], "1011"), (["--count", "2"], "10"),
                                         (["--count", "0"], "")])
def test_decode_wide_count(tmp_path, len_family, capsys, count, want):
    """--count 0 decodes nothing, as in decode-pair and decode-many; an
    omitted --count decodes the whole payload."""
    out = tmp_path / "wide.json"
    assert main(["entangle-wide", "--family", len_family,
                 "--payload", "bits:1011", "--steps", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["decode-wide", "--trace", str(out), *count]) == 0
    assert capsys.readouterr().out == f"decoded z bits: {want}\n"


def test_generics_and_bound_chain(tmp_path, plane_family, capsys):
    gen = tmp_path / "gen.json"
    assert main(["build-generics", "--family", plane_family, "--rows", "3",
                 "--horizon", "6", "--seed", "s1", "--out", str(gen)]) == 0
    assert main(["verify", "--trace", str(gen)]) == 0
    bound = tmp_path / "bound.json"
    assert main(["bound-chain", "--family", plane_family, "--rows", "3",
                 "--from-generics", str(gen), "--seed", "s1",
                 "--out", str(bound)]) == 0
    assert main(["verify", "--trace", str(bound)]) == 0
    bound2 = tmp_path / "bound2.json"
    assert main(["bound-chain", "--family", plane_family, "--rows", "2",
                 "--seed", "s2", "--out", str(bound2)]) == 0
    assert main(["verify", "--trace", str(bound2)]) == 0


def test_seed_determinism_byte_identical(tmp_path, plane_family):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["bound-chain", "--family", plane_family, "--rows", "2",
                     "--seed", "fixed", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_default(tmp_path, plane_family, monkeypatch):
    monkeypatch.setenv("FORCING_LAB_SEED", "env-seed")
    a = tmp_path / "a.json"
    assert main(["build-generics", "--family", plane_family, "--rows", "1",
                 "--horizon", "4", "--out", str(a)]) == 0
    assert json.loads(a.read_text())["seed"] == "env-seed"


def _in_process(argv, capsys):
    """stdout, stderr and exit code of `main(argv)` in this process."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


def _fresh_process(argv):
    """stdout, stderr and exit code of `python -m forcing_lab.cli argv`,
    run in a new process with this process's environment."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-m", "forcing_lab.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.stdout, proc.stderr, proc.returncode


def test_repeated_main_calls_match_fresh_processes(tmp_path, len_family,
                                                   monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal
    out = str(tmp_path / "pair.json")
    no_stages = ["entangle-pair", "--family", len_family, "--payload", "hex:ff"]
    runs = [no_stages, ["verify", "--help"],
            [*no_stages, "--stages", "4", "--out", out], no_stages,
            ["verify", "--trace", out]]
    mine = [_in_process(argv, capsys) for argv in runs]
    trace = Path(out).read_bytes()
    assert [code for _, _, code in mine] == [2, 0, 0, 2, 0]
    assert mine[0] == mine[3]
    assert [_fresh_process(argv) for argv in runs] == mine
    assert Path(out).read_bytes() == trace


def test_env_seed_is_read_on_each_call(tmp_path, plane_family, monkeypatch):
    argv = ["build-generics", "--family", plane_family, "--rows", "2",
            "--horizon", "4"]
    for seed in ("env-a", "env-b"):
        monkeypatch.setenv(ENV_SEED, seed)
        mine, fresh = tmp_path / f"{seed}.json", tmp_path / f"{seed}-new.json"
        assert main([*argv, "--out", str(mine)]) == 0
        assert _fresh_process([*argv, "--out", str(fresh)])[2] == 0
        assert json.loads(mine.read_text())["seed"] == seed
        assert mine.read_bytes() == fresh.read_bytes()


def test_main_builds_its_parser_at_most_once(tmp_path, len_family,
                                             monkeypatch):
    trace = str(_pair_trace(tmp_path, len_family))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    for _ in range(10):
        assert main(["verify", "--trace", trace]) == 0
    assert len(built) <= 1


def test_seed_flag_reseeds_unseeded_family(tmp_path, len_family):
    plain, seeded = tmp_path / "p.json", tmp_path / "s.json"
    for out, extra in ((plain, []), (seeded, ["--seed", "dfree"])):
        assert main(["entangle-pair", "--family", len_family,
                     "--payload", "hex:a7", "--stages", "6",
                     "--out", str(out), *extra]) == 0
    assert json.loads(seeded.read_text())["family"]["seed"] == "dfree"
    assert "seed" not in json.loads(plain.read_text())["family"]
    assert main(["verify", "--trace", str(seeded)]) == 0


def test_usage_errors_exit_2(tmp_path, len_family):
    assert main(["entangle-pair", "--family", str(tmp_path / "nope.json"),
                 "--payload", "hex:ff", "--stages", "2"]) == 2
    assert main(["entangle-pair", "--family", len_family,
                 "--payload", "wat", "--stages", "2"]) == 2
    assert main(["entangle-pair", "--family", len_family,
                 "--payload", "bits:2", "--stages", "2"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_check_failures_exit_1(tmp_path, len_family):
    # too few dense sets for the requested stages
    assert main(["entangle-pair", "--family", len_family,
                 "--payload", "hex:ff", "--stages", "99"]) == 2
    # exhausted finite payload
    assert main(["entangle-pair", "--family", len_family,
                 "--payload", "bits:1", "--stages", "4"]) == 1


@pytest.mark.parametrize("sets", [5, None], ids=["cut-to-5", "no-sets"])
def test_pair_family_short_of_its_stages_fails_generic_items(tmp_path,
                                                             capsys, sets):
    """A pair trace whose family has fewer sets than stages fails both
    genericity items with one line naming the two counts."""
    out = tmp_path / "pair.json"
    assert main(["entangle-pair", "--family", str(FAMILIES / "mixed12.json"),
                 "--payload", "seed:3", "--stages", "8", "--seed", "s1",
                 "--out", str(out)]) == 0

    def edit(obj):
        if sets is None:
            del obj["family"]["sets"]
        else:
            del obj["family"]["sets"][sets:]

    path = _edited(out, edit)
    capsys.readouterr()
    assert main(["verify", "--trace", path]) == 1
    text = capsys.readouterr().out
    for name in ("c", "d"):
        assert (f"FAIL pair-{name}-generic: 8 stages need 8 dense sets, "
                f"family has {sets or 0}") in text.splitlines()
    assert "exception" not in text


def test_wide_chain_that_cannot_be_ordered_fails_descent(tmp_path, capsys):
    """An edited run that leaves two symbolic lengths to compare fails
    wide-chains-descending with the chain and index, not an exception."""
    out = tmp_path / "wide.json"
    assert main(["entangle-wide", "--family", str(FAMILIES / "len8.json"),
                 "--payload", "bits:101", "--steps", "3",
                 "--out", str(out)]) == 0

    def edit(obj):
        runs = obj["conditions"]["h"][2]["runs"]
        assert runs[-1] == [1, 1]
        runs[-1] = [0, 1]

    path = _edited(out, edit)
    capsys.readouterr()
    assert main(["verify", "--trace", path]) == 1
    text = capsys.readouterr().out
    assert ("FAIL wide-chains-descending: h chain cannot be ordered at 2: "
            "h[3] against h[2]") in text.splitlines()
    assert "exception" not in text


def _pair_trace(tmp_path, family):
    out = tmp_path / "pair.json"
    assert main(["entangle-pair", "--family", family, "--payload", "hex:ff",
                 "--stages", "4", "--out", str(out)]) == 0
    return out


def _wide_trace(tmp_path, family):
    out = tmp_path / "wide.json"
    assert main(["entangle-wide", "--family", family, "--payload", "bits:101",
                 "--steps", "3", "--out", str(out)]) == 0
    return out


def _many_trace(tmp_path):
    family = tmp_path / "product.json"
    family.write_text(json.dumps(
        {"carrier": "product", "arity": 2, "sets": [{"type": "min-length"}] * 4}))
    out = tmp_path / "many.json"
    assert main(["entangle-many", "--k", "3", "--family", str(family),
                 "--payload", "hex:ff", "--stages", "3", "--out", str(out)]) == 0
    return out


def _chain_trace(tmp_path, plane):
    out = tmp_path / "chain.json"
    assert main(["bound-chain", "--family", plane, "--rows", "2",
                 "--seed", "cb", "--out", str(out)]) == 0
    return out


def _generics_trace(tmp_path, plane):
    out = tmp_path / "generics.json"
    assert main(["build-generics", "--family", plane, "--rows", "2",
                 "--horizon", "4", "--seed", "gp", "--out", str(out)]) == 0
    return out


def test_tampered_d_row_fails_verify(tmp_path, plane_family, capsys):
    def flip_d0_patch(obj):
        d0 = next(s for s in obj["streams"] if s["name"] == "d0")
        col = min(d0["patch"], key=int)
        d0["patch"][col] ^= 1

    path = _edited(_chain_trace(tmp_path, plane_family), flip_d0_patch)
    capsys.readouterr()
    assert main(["verify", "--trace", path]) == 1
    assert "FAIL chain-rows-preserved-off-patches" in capsys.readouterr().out


def test_d_row_base_swapped_past_the_window_fails_verify(tmp_path,
                                                       plane_family, capsys):
    """d0's base, in the stream and in the plane, becomes a plain stream
    that agrees with b0 on the reported window and differs just past it."""
    path = _chain_trace(tmp_path, plane_family)
    capsys.readouterr()
    assert main(["verify", "--trace", str(path)]) == 0
    window = int(capsys.readouterr().out.split("window ")[1].split()[0])

    def swap_d0_base(obj):
        b0 = next(s for s in obj["streams"] if s["name"] == "b0")
        text = stream_from_json(b0).take01(window + 1)
        base = {"prefix": text[:window],
                "tail_rule": {"kind": "const", "bit": 1 - int(text[window])}}
        next(s for s in obj["streams"] if s["name"] == "d0")["base"] = base
        obj["plane"]["rows"]["0"]["base"] = base

    _edited(path, swap_d0_base)
    assert main(["verify", "--trace", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL chain-rows-preserved-off-patches: rows not b_k patched" in out
    assert out.count("FAIL") == 2, out


def test_tampered_generics_row_tail_fails_verify(tmp_path, capsys):
    fam = tmp_path / "square6.json"
    fam.write_text(json.dumps({"carrier": "plane", "seed": "s",
                               "sets": [{"type": "square"}] * 6}))
    out = tmp_path / "gen.json"
    assert main(["build-generics", "--family", str(fam), "--rows", "3",
                 "--horizon", "6", "--seed", "g", "--out", str(out)]) == 0

    def reseed_row0_tail(obj):
        obj["streams"][0]["tail_rule"]["seed"] = "evil213"

    path = _edited(out, reseed_row0_tail)
    capsys.readouterr()
    assert main(["verify", "--trace", path]) == 1
    assert "FAIL generics-rows-are-slices: row 0" in capsys.readouterr().out


def test_tampered_many_condition_fails_verify(tmp_path, capsys):
    out = tmp_path / "many.json"
    assert main(["entangle-many", "--k", "4",
                 "--family", str(FAMILIES / "product32-arity3.json"),
                 "--payload", "seed:m", "--stages", "6",
                 "--out", str(out)]) == 0

    def flip_first_bit(obj):
        cond = obj["conditions"][2]
        cond["1"] = str(1 - int(cond["1"][0])) + cond["1"][1:]

    path = _edited(out, flip_first_bit)
    capsys.readouterr()
    assert main(["verify", "--trace", path]) == 1
    assert ("FAIL many-frontier-invariant: stage 2 stream 1"
            in capsys.readouterr().out)


def test_stray_chain_patch_is_named(tmp_path, plane_family, capsys):
    def add_far_patch(obj):
        obj["patches"]["0"]["3000000"] = 1

    path = _edited(_chain_trace(tmp_path, plane_family), add_far_patch)
    capsys.readouterr()
    assert main(["verify", "--trace", path]) == 1
    assert ("FAIL chain-rows-preserved-off-patches: patch cells not in the "
            "last commitment: [(0, 3000000)]" in capsys.readouterr().out)


def test_far_matching_patch_loads_without_generating_bits(
        tmp_path, plane_family, capsys, monkeypatch):
    """One matching cell at column 3,000,000 in the last commitment (and
    its cell count), the row-0 patch, d0 and plane row 0: a valid trace.
    Loading it reads the patch bit and generates no base bit before it."""
    far = 3_000_000
    path = _chain_trace(tmp_path, plane_family)
    capsys.readouterr()
    assert main(["verify", "--trace", str(path)]) == 0
    before = capsys.readouterr().out

    def add_far_cell(obj):
        obj["conditions"][-1].append([0, far, 1])
        obj["stages"][-1]["committed_cells"] += 1
        obj["patches"]["0"][str(far)] = 1
        next(s for s in obj["streams"] if s["name"] == "d0")["patch"][
            str(far)] = 1
        obj["plane"]["rows"]["0"]["patch"][str(far)] = 1

    _edited(path, add_far_cell)
    hashes = []
    monkeypatch.setattr(bits, "prng_bit",
                        lambda seed, i, real=bits.prng_bit:
                        hashes.append(i) or real(seed, i))
    start = time.perf_counter()
    assert main(["verify", "--trace", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert len(hashes) < 1000 and max(hashes, default=0) < 100
    assert capsys.readouterr().out == before.replace(
        before.split("window ")[1].split()[0], str(far + 1))


def test_non_ascii_seeds(tmp_path, len_family, plane_family):
    gen, pair = tmp_path / "gen.json", tmp_path / "pair.json"
    assert main(["build-generics", "--family", plane_family, "--rows", "2",
                 "--horizon", "4", "--seed", "é", "--out", str(gen)]) == 0
    assert main(["entangle-pair", "--family", len_family,
                 "--payload", "seed:é", "--stages", "4",
                 "--out", str(pair)]) == 0
    for out in (gen, pair):
        assert main(["verify", "--trace", str(out)]) == 0


def _edited(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    return str(path)


def _without_c(obj):
    obj["streams"] = [s for s in obj["streams"] if s["name"] != "c"]


def _stream_c(edit):
    """A trace edit that applies `edit` to the object of stream c."""
    def apply(obj):
        edit(next(s for s in obj["streams"] if s["name"] == "c"))
    return apply


def _as_patched(**parts):
    """Turn a stream object into a patched stream made of `parts`; a part
    given as ... is the stream as it was."""
    def edit(stream):
        base = {k: stream.pop(k) for k in ("prefix", "tail_rule")}
        stream.update(kind="patched",
                      **{k: base if v is ... else v for k, v in parts.items()})
    return edit


def _renamed(old, new):
    def edit(obj):
        for s in obj["streams"]:
            if s["name"] == old:
                s["name"] = new
    return edit


def _verify_edited(path, edit):
    return ["verify", "--trace", _edited(path, edit)]


def _case_pair_no_payload_bits(tmp_path, fam, plane):
    path = _edited(_pair_trace(tmp_path, fam), lambda o: o.pop("payload_bits"))
    return ["verify", "--trace", path]


def _case_pair_no_stream_c(tmp_path, fam, plane):
    return ["verify", "--trace", _edited(_pair_trace(tmp_path, fam), _without_c)]


def _case_family_of_ints(tmp_path, fam, plane):
    bad = tmp_path / "ints.json"
    bad.write_text("[1, 2]")
    return ["entangle-pair", "--family", str(bad), "--payload", "hex:ff",
            "--stages", "2"]


def _case_pattern_without_word(tmp_path, fam, plane):
    bad = tmp_path / "noword.json"
    bad.write_text(json.dumps([{"type": "min-length"}, {"type": "pattern"}]))
    return ["entangle-pair", "--family", str(bad), "--payload", "hex:ff",
            "--stages", "2"]


def _case_decode_wide_unknown_poset(tmp_path, fam, plane):
    path = _edited(_wide_trace(tmp_path, fam),
                   lambda o: o.update(poset="nope"))
    return ["decode-wide", "--trace", path]


def _case_decode_wide_budget_zero(tmp_path, fam, plane):
    return ["decode-wide", "--trace", str(_wide_trace(tmp_path, fam)),
            "--budget", "0"]


def _case_decode_wide_budget_negative(tmp_path, fam, plane):
    return ["decode-wide", "--trace", str(_wide_trace(tmp_path, fam)),
            "--budget", "-3"]


def _case_bound_chain_from_wide(tmp_path, fam, plane):
    return ["bound-chain", "--family", plane, "--rows", "1",
            "--from-generics", str(_wide_trace(tmp_path, fam))]


def _case_bound_chain_from_pair(tmp_path, fam, plane):
    return ["bound-chain", "--family", plane, "--rows", "2",
            "--from-generics", str(_pair_trace(tmp_path, fam))]


def _case_bound_chain_more_rows_than_generics(tmp_path, fam, plane):
    return ["bound-chain", "--family", plane, "--rows", "3",
            "--from-generics", str(_generics_trace(tmp_path, plane))]


def _case_verify_wide_unknown_poset(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam),
                          lambda o: o.update(poset="nope"))


def _case_stream_no_prefix(tmp_path, fam, plane):
    return _verify_edited(_pair_trace(tmp_path, fam),
                          _stream_c(lambda s: s.pop("prefix")))


def _case_stream_no_tail_rule(tmp_path, fam, plane):
    return _verify_edited(_pair_trace(tmp_path, fam),
                          _stream_c(lambda s: s.pop("tail_rule")))


def _case_patched_no_base(tmp_path, fam, plane):
    return _verify_edited(_pair_trace(tmp_path, fam),
                          _stream_c(_as_patched(patch={})))


def _case_patched_no_patch(tmp_path, fam, plane):
    return _verify_edited(_pair_trace(tmp_path, fam),
                          _stream_c(_as_patched(base=...)))


def _case_patched_base_not_object(tmp_path, fam, plane):
    return _verify_edited(_pair_trace(tmp_path, fam),
                          _stream_c(_as_patched(base=5, patch={})))


def _case_many_stream_named_7(tmp_path, fam, plane):
    return _verify_edited(_many_trace(tmp_path), _renamed("0", "7"))


def _case_many_stream_named_x(tmp_path, fam, plane):
    return _verify_edited(_many_trace(tmp_path), _renamed("0", "x"))


def _case_many_stream_missing(tmp_path, fam, plane):
    return _verify_edited(_many_trace(tmp_path), lambda o: o.update(
        streams=[s for s in o["streams"] if s["name"] != "1"]))


def _case_generics_stream_named_x(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane), _renamed("0", "x"))


def _case_generics_streams_reordered(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          lambda o: o["streams"].reverse())


def _plane_edit(edit):
    """A trace edit that applies `edit` to the trace's plane object."""
    return lambda obj: edit(obj["plane"])


def _case_chain_plane_row_key_x(tmp_path, fam, plane):
    def edit(p):
        p["rows"]["x"] = p["rows"].pop("0")
    return _verify_edited(_chain_trace(tmp_path, plane), _plane_edit(edit))


def _case_chain_plane_commitment_pair(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _plane_edit(
        lambda p: p.update(commitments=[[1, 2]])))


def _case_chain_plane_rows_list(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _plane_edit(
        lambda p: p.update(rows=[1])))


def _case_chain_patch_not_object(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane),
                          lambda o: o.update(patches={"0": [1]}))


def _generics_cell(cell):
    """A trace edit that adds `cell` to a generics trace's commitments."""
    return lambda obj: obj["conditions"][0].append(cell)


def _case_generics_cell_row_a(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          _generics_cell(["a", 0, 1]))


def _case_generics_cell_bit_5(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          _generics_cell([0, 0, 5]))


def _case_generics_cell_row_negative(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          _generics_cell([-1, 0, 1]))


def _case_generics_cell_row_half(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          _generics_cell([0.5, 0, 1]))


def _case_generics_cell_bit_true(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          _generics_cell([0, 0, True]))


def _case_generics_cell_twice(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane), lambda o: (
        o["conditions"][0].append(list(o["conditions"][0][0]))))


def _case_chain_plane_cell_bit_true(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _plane_edit(
        lambda p: p["commitments"].append([0, 0, True])))


def _case_chain_patch_bit_true(tmp_path, fam, plane):
    def edit(obj):
        cols = obj["patches"]["0"]
        cols[min(cols, key=int)] = True
    return _verify_edited(_chain_trace(tmp_path, plane), edit)


def _case_generics_horizon_past_family(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          lambda o: o.update(horizon=99))


def _case_generics_horizon_negative(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          lambda o: o.update(horizon=-1))


def _case_build_generics_horizon_negative(tmp_path, fam, plane):
    return ["build-generics", "--family", plane, "--rows", "2",
            "--horizon", "-3", "--out", str(tmp_path / "neg.json")]


def _case_stream_prefix_too_long(tmp_path, fam, plane):
    return _verify_edited(_pair_trace(tmp_path, fam), _stream_c(
        lambda s: s.update(prefix="0" * (_MATERIALIZE_LIMIT + 1))))


def _case_patched_column_too_large(tmp_path, fam, plane):
    return _verify_edited(_pair_trace(tmp_path, fam), _stream_c(
        _as_patched(base=..., patch={str(_MATERIALIZE_LIMIT): 1})))


def _case_pair_condition_not_binary(tmp_path, fam, plane):
    def edit(obj):
        obj["conditions"][0]["c"] = "012"
    return _verify_edited(_pair_trace(tmp_path, fam), edit)


def _case_pair_condition_whitespace(tmp_path, fam, plane):
    def edit(obj):
        cond = obj["conditions"][1]
        cond["c"] = cond["c"][:2] + " \n" + cond["c"][2:]
    return _verify_edited(_pair_trace(tmp_path, fam), edit)


def _case_stream_prefix_tab(tmp_path, fam, plane):
    def edit(stream):
        stream["prefix"] = stream["prefix"][:3] + "\t" + stream["prefix"][3:]
    return _verify_edited(_pair_trace(tmp_path, fam), _stream_c(edit))


def _case_many_condition_extra_stream(tmp_path, fam, plane):
    def edit(obj):
        obj["conditions"][0]["3"] = "0"
    return _verify_edited(_many_trace(tmp_path), edit)


def _case_d0_patch_bit_false(tmp_path, fam, plane):
    def edit(obj):
        d0 = next(s for s in obj["streams"] if s["name"] == "d0")
        col = min(d0["patch"], key=int)
        d0["patch"][col] = bool(d0["patch"][col])
    return _verify_edited(_chain_trace(tmp_path, plane), edit)


def _case_generics_rows_negative(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          lambda o: o.update(rows=-1, streams=[]))


def _case_generics_rows_true(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane), lambda o: o.update(
        rows=True, streams=o["streams"][:1]))


def _case_generics_cell_column_at_limit(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          _generics_cell([0, _MATERIALIZE_LIMIT, 1]))


def _case_chain_plane_cell_row_at_limit(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _plane_edit(
        lambda p: p["commitments"].append([_MATERIALIZE_LIMIT, 0, 1])))


def _bit_file(tmp_path, text="0101"):
    path = tmp_path / "marked.bits"
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def _case_decode_pair_scan_budget_negative(tmp_path, fam, plane):
    path = _bit_file(tmp_path)
    return ["decode-pair", "--c", path, "--d", path, "--count", "1",
            "--scan-budget", "-5"]


def _case_decode_many_scan_budget_zero(tmp_path, fam, plane):
    path = _bit_file(tmp_path)
    return ["decode-many", "--streams", path, path, "--count", "1",
            "--scan-budget", "0"]


def _case_decode_pair_scan_budget_past_limit(tmp_path, fam, plane):
    path = _bit_file(tmp_path)
    return ["decode-pair", "--c", path, "--d", path, "--count", "1",
            "--scan-budget", str(_MATERIALIZE_LIMIT + 1)]


def _case_decode_pair_missing_bit_file(tmp_path, fam, plane):
    return ["decode-pair", "--c", str(tmp_path / "missing.bits"),
            "--d", _bit_file(tmp_path), "--count", "1"]


def _case_decode_pair_non_ascii_bit_file(tmp_path, fam, plane):
    path = _bit_file(tmp_path, "01é")
    return ["decode-pair", "--c", path, "--d", path, "--count", "1"]


def _case_decode_many_missing_bit_file(tmp_path, fam, plane):
    return ["decode-many", "--streams", _bit_file(tmp_path),
            str(tmp_path / "missing.bits"), "--count", "1"]


def _case_payload_file_missing(tmp_path, fam, plane):
    return ["entangle-pair", "--family", fam, "--stages", "2",
            "--payload", f"file:{tmp_path / 'missing.bits'}"]


def _case_decode_pair_bit_file_too_long(tmp_path, fam, plane):
    path = _bit_file(tmp_path, "0" * _MATERIALIZE_LIMIT + "1" * 8)
    return ["decode-pair", "--c", path, "--d", path, "--count", "1"]


def _case_decode_many_bit_file_too_long(tmp_path, fam, plane):
    path = _bit_file(tmp_path, "0" * _MATERIALIZE_LIMIT + "1" * 8)
    return ["decode-many", "--streams", path, path, "--count", "1"]


def _nat_node(match, edit):
    """A trace edit that applies `edit` to the first nat node holding every
    item of `match`."""
    def apply(obj):
        edit(next(n for n in obj["nats"] if match.items() <= n.items()))
    return apply


def _case_wide_nat_op_unknown(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _nat_node(
        {"op": "mul2"}, lambda n: n.update(op="mul2x")))


def _case_wide_nat_const_true(tmp_path, fam, plane):
    # const 1 -> true: a bool that equals the int it replaces
    return _verify_edited(_wide_trace(tmp_path, fam), _nat_node(
        {"op": "add", "const": 1}, lambda n: n.update(const=True)))


def _case_wide_nat_arg_true(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _nat_node(
        {"op": "mul2", "arg": 1}, lambda n: n.update(arg=True)))


def _case_wide_stage_alpha_true(tmp_path, fam, plane):
    def edit(obj):
        next(s for s in obj["stages"] if s["alpha"] == 1)["alpha"] = True
    return _verify_edited(_wide_trace(tmp_path, fam), edit)


def _case_family_parity_3(tmp_path, fam, plane):
    bad = tmp_path / "parity3.json"
    bad.write_text(json.dumps(
        [{"type": "min-length"}, {"type": "parity", "parity": 3}]))
    return ["entangle-pair", "--family", str(bad), "--payload", "hex:ff",
            "--stages", "2"]


def _wide_stage_edit(key, value):
    def edit(obj):
        obj["stages"][0][key] = value
    return edit


def _case_wide_stage_z_true(tmp_path, fam, plane):
    # z 1 -> true: a bool that equals the int it replaces
    return _verify_edited(_wide_trace(tmp_path, fam),
                          _wide_stage_edit("z", True))


def _case_wide_stage_step_false(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam),
                          _wide_stage_edit("step", False))


def _case_wide_stage_step_float(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam),
                          _wide_stage_edit("step", 0.0))


def _wide_run_bit(value):
    """A trace edit that puts `value` in place of the first run bit 1."""
    def edit(obj):
        runs = next(s["runs"] for s in obj["conditions"]["g"]
                    if isinstance(s, dict))
        next(run for run in runs if run[0] == 1)[0] = value
    return edit


def _case_wide_run_bit_true(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _wide_run_bit(True))


def _case_wide_run_bit_float(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _wide_run_bit(1.0))


def _case_pair_payload_bit_2(tmp_path, fam, plane):
    def edit(obj):
        obj["payload_bits"][0] = 2
    return _verify_edited(_pair_trace(tmp_path, fam), edit)


def _case_pair_payload_bit_true(tmp_path, fam, plane):
    def edit(obj):
        obj["payload_bits"][obj["payload_bits"].index(1)] = True
    return _verify_edited(_pair_trace(tmp_path, fam), edit)


def _case_pair_boundary_float(tmp_path, fam, plane):
    def edit(obj):
        obj["boundaries"][0] = float(obj["boundaries"][0])
    return _verify_edited(_pair_trace(tmp_path, fam), edit)


def _case_pair_stage_c_len_true(tmp_path, fam, plane):
    def edit(obj):
        obj["stages"][0]["c_len"] = True
    return _verify_edited(_pair_trace(tmp_path, fam), edit)


def _case_many_stage_length_float(tmp_path, fam, plane):
    def edit(obj):
        obj["stages"][0]["lengths"][0] += 0.0
    return _verify_edited(_many_trace(tmp_path), edit)


def _case_chain_stage_retries_true(tmp_path, fam, plane):
    def edit(obj):
        obj["stages"][0]["retries"] = True
    return _verify_edited(_chain_trace(tmp_path, plane), edit)


def _case_chain_payload_bit(tmp_path, fam, plane):
    def edit(obj):
        obj["payload_bits"] = [1]
    return _verify_edited(_chain_trace(tmp_path, plane), edit)


def _chain_stage_edit(edit):
    """A trace edit that applies `edit` to the chain-bound stage records;
    stage 4 of the `_chain_trace` run made one failed attempt."""
    def apply(obj):
        assert len(obj["stages"][4]["attempts"]) == 1
        edit(obj["stages"])
    return apply


def _case_chain_record_a_list(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _chain_stage_edit(
        lambda stages: stages.__setitem__(0, [0, 0])))


def _case_chain_attempts_an_int(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _chain_stage_edit(
        lambda stages: stages[4].update(attempts=1)))


def _case_chain_attempt_without_clashes(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _chain_stage_edit(
        lambda stages: stages[4]["attempts"][0].pop("clashes")))


def _case_chain_clash_cell_of_a_list(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _chain_stage_edit(
        lambda stages: stages[4]["attempts"][0]["clashes"].__setitem__(
            0, [[1], 8])))


def _case_pair_boundary_2_pow_5000(tmp_path, fam, plane):
    def edit(obj):
        obj["boundaries"][0] = 2 ** 5000
    return _verify_edited(_pair_trace(tmp_path, fam), edit)


def _wide_run_list_edit(index, edit):
    """A trace edit that applies `edit` to the run list at `index` among
    those of chain g: 0 is read on its own, -1 on the rows of the one
    before it."""
    def apply(obj):
        edit([s for s in obj["conditions"]["g"] if isinstance(s, dict)][index])
    return apply


def _case_wide_first_run_list_extra_key(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _wide_run_list_edit(
        0, lambda s: s.update(extra=1)))


def _case_wide_last_run_list_extra_key(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _wide_run_list_edit(
        -1, lambda s: s.update(extra=1)))


def _case_wide_nat_node_extra_key(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _nat_node(
        {}, lambda n: n.update(extra=1)))


def _case_wide_mul2_node_with_args(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _nat_node(
        {"op": "mul2"}, lambda n: n.update(args=[])))


def _nat_ref_extra_key(pick):
    """A trace edit that adds a key to the nat reference `pick` finds."""
    def edit(obj):
        pick(obj).update(extra=1)
    return edit


def _case_wide_run_row_nat_ref_extra_key(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _nat_ref_extra_key(
        lambda obj: next(run[1] for s in obj["conditions"]["g"]
                         if isinstance(s, dict) for run in s["runs"]
                         if isinstance(run[1], dict))))


def _case_wide_stage_alpha_nat_ref_extra_key(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _nat_ref_extra_key(
        lambda obj: next(s["alpha"] for s in obj["stages"]
                         if isinstance(s["alpha"], dict))))


def _case_wide_add_node_arg_nat_ref_extra_key(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam), _nat_ref_extra_key(
        lambda obj: next(n["args"][0] for n in obj["nats"]
                         if n["op"] == "add" and n["args"])))


def _not_utf8(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _case_verify_trace_not_utf8(tmp_path, fam, plane):
    return ["verify", "--trace", _not_utf8(tmp_path, "t.json", b"\xff\xfe{}")]


def _case_decode_wide_trace_not_utf8(tmp_path, fam, plane):
    return ["decode-wide", "--trace",
            _not_utf8(tmp_path, "t.json", b"\xff\xfe{}")]


def _case_family_trailing_byte_not_utf8(tmp_path, fam, plane):
    family = _not_utf8(tmp_path, "fam.json", Path(fam).read_bytes() + b"\xff")
    return ["entangle-pair", "--family", family, "--payload", "seed:x",
            "--stages", "2"]


def _case_out_in_missing_directory(tmp_path, fam, plane):
    return ["entangle-pair", "--family", fam, "--payload", "seed:x",
            "--stages", "2", "--out", str(tmp_path / "missing" / "t.json")]


def _many_k(k):
    """A many-trace edit to k streams, keeping streams 0..k-1 and their
    conditions; with no stream left, the stages and the fields derived
    from them go too."""
    def edit(obj):
        kept = [str(i) for i in range(k)]
        obj.update(k=k, streams=obj["streams"][:len(kept)], conditions=[
            {name: rec[name] for name in kept} for rec in obj["conditions"]])
        if k < 1:
            obj.update(conditions=[], stages=[], boundaries=[],
                       payload_bits=[])
            del obj["payload_source"]
    return edit


def _case_many_k_1(tmp_path, fam, plane):
    return _verify_edited(_many_trace(tmp_path), _many_k(1))


def _case_many_k_0(tmp_path, fam, plane):
    return _verify_edited(_many_trace(tmp_path), _many_k(0))


def _family_of(carrier, kind, count, **extra):
    """A trace edit that gives the trace `count` sets of type `kind` over
    `carrier`."""
    return lambda obj: obj.update(family={
        "carrier": carrier, "sets": [{"type": kind}] * count, **extra})


def _case_pair_family_plane(tmp_path, fam, plane):
    return _verify_edited(_pair_trace(tmp_path, fam),
                          _family_of("plane", "square", 8))


def _case_many_family_cohen(tmp_path, fam, plane):
    return _verify_edited(_many_trace(tmp_path),
                          _family_of("cohen", "min-length", 4))


def _case_wide_family_plane(tmp_path, fam, plane):
    return _verify_edited(_wide_trace(tmp_path, fam),
                          _family_of("plane", "square", 8))


def _case_chain_family_cohen(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane),
                          _family_of("cohen", "min-length", 12))


def _case_generics_family_product(tmp_path, fam, plane):
    return _verify_edited(_generics_trace(tmp_path, plane),
                          _family_of("product", "min-length", 12, arity=2))


def _renamed_key(mapping, old, new):
    mapping[new] = mapping.pop(old)


def _case_chain_patch_row_plus_0(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), lambda o: (
        _renamed_key(o["patches"], "0", "+0")))


def _case_chain_patch_column_03(tmp_path, fam, plane):
    def edit(obj):
        cols = obj["patches"]["0"]
        col = min(cols, key=int)
        _renamed_key(cols, col, "0" + col)
    return _verify_edited(_chain_trace(tmp_path, plane), edit)


def _case_d0_patch_key_03(tmp_path, fam, plane):
    def edit(obj):
        patch = next(s for s in obj["streams"] if s["name"] == "d0")["patch"]
        col = min(patch, key=int)
        _renamed_key(patch, col, "0" + col)
    return _verify_edited(_chain_trace(tmp_path, plane), edit)


def _case_chain_plane_row_space_1(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _plane_edit(
        lambda p: _renamed_key(p["rows"], "1", " 1")))


def _case_chain_plane_row_minus_3(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _plane_edit(
        lambda p: p["rows"].update({"-3": p["rows"]["0"]})))


def _case_chain_plane_row_00(tmp_path, fam, plane):
    return _verify_edited(_chain_trace(tmp_path, plane), _plane_edit(
        lambda p: p["rows"].update({"00": p["rows"]["1"]})))


@pytest.mark.parametrize("case", [
    _case_many_k_1, _case_many_k_0, _case_pair_family_plane,
    _case_many_family_cohen, _case_wide_family_plane,
    _case_chain_family_cohen, _case_generics_family_product,
    _case_chain_patch_row_plus_0, _case_chain_patch_column_03,
    _case_d0_patch_key_03, _case_chain_plane_row_space_1,
    _case_chain_plane_row_minus_3, _case_chain_plane_row_00,
    _case_pair_no_payload_bits, _case_pair_no_stream_c, _case_family_of_ints,
    _case_pattern_without_word, _case_decode_wide_unknown_poset,
    _case_decode_wide_budget_zero, _case_decode_wide_budget_negative,
    _case_bound_chain_from_wide, _case_bound_chain_from_pair,
    _case_bound_chain_more_rows_than_generics, _case_verify_wide_unknown_poset,
    _case_stream_no_prefix, _case_stream_no_tail_rule, _case_patched_no_base,
    _case_patched_no_patch, _case_patched_base_not_object,
    _case_many_stream_named_7, _case_many_stream_named_x,
    _case_many_stream_missing, _case_generics_stream_named_x,
    _case_generics_streams_reordered, _case_chain_plane_row_key_x,
    _case_chain_plane_commitment_pair, _case_chain_plane_rows_list,
    _case_chain_patch_not_object, _case_stream_prefix_too_long,
    _case_patched_column_too_large, _case_pair_condition_not_binary,
    _case_pair_condition_whitespace, _case_stream_prefix_tab,
    _case_many_condition_extra_stream, _case_generics_cell_row_a,
    _case_generics_cell_bit_5, _case_generics_cell_row_negative,
    _case_generics_cell_row_half, _case_generics_cell_bit_true,
    _case_generics_cell_twice, _case_chain_plane_cell_bit_true,
    _case_chain_patch_bit_true, _case_generics_horizon_past_family,
    _case_generics_horizon_negative, _case_build_generics_horizon_negative,
    _case_d0_patch_bit_false, _case_generics_rows_negative,
    _case_generics_rows_true, _case_generics_cell_column_at_limit,
    _case_chain_plane_cell_row_at_limit,
    _case_decode_pair_scan_budget_negative,
    _case_decode_many_scan_budget_zero,
    _case_decode_pair_scan_budget_past_limit,
    _case_decode_pair_missing_bit_file, _case_decode_pair_non_ascii_bit_file,
    _case_decode_many_missing_bit_file, _case_payload_file_missing,
    _case_decode_pair_bit_file_too_long, _case_decode_many_bit_file_too_long,
    _case_wide_nat_op_unknown, _case_wide_nat_const_true,
    _case_wide_nat_arg_true, _case_wide_stage_alpha_true,
    _case_family_parity_3, _case_wide_stage_z_true,
    _case_wide_stage_step_false, _case_wide_stage_step_float,
    _case_wide_run_bit_true, _case_wide_run_bit_float,
    _case_pair_payload_bit_2, _case_pair_payload_bit_true,
    _case_pair_boundary_float, _case_pair_stage_c_len_true,
    _case_many_stage_length_float, _case_chain_stage_retries_true,
    _case_chain_payload_bit, _case_verify_trace_not_utf8,
    _case_decode_wide_trace_not_utf8, _case_family_trailing_byte_not_utf8,
    _case_out_in_missing_directory, _case_chain_record_a_list,
    _case_chain_attempts_an_int, _case_chain_attempt_without_clashes,
    _case_chain_clash_cell_of_a_list, _case_pair_boundary_2_pow_5000,
    _case_wide_first_run_list_extra_key, _case_wide_last_run_list_extra_key,
    _case_wide_nat_node_extra_key, _case_wide_mul2_node_with_args,
    _case_wide_run_row_nat_ref_extra_key,
    _case_wide_stage_alpha_nat_ref_extra_key,
    _case_wide_add_node_arg_nat_ref_extra_key,
], ids=lambda f: f.__name__[len("_case_"):])
def test_malformed_input_is_one_line_usage_error(tmp_path, len_family,
                                                 plane_family, case, capsys):
    argv = case(tmp_path, len_family, plane_family)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def _product_trace(tmp_path):
    """A many trace over docs/families/product32-arity3.json: k = 4
    streams, so each subtuple holds 3, and 3 stages."""
    out = tmp_path / "product.json"
    assert main(["entangle-many", "--k", "4",
                 "--family", str(FAMILIES / "product32-arity3.json"),
                 "--payload", "hex:ff", "--stages", "3",
                 "--out", str(out)]) == 0
    return out


def _family_edit(edit):
    return lambda obj: edit(obj["family"])


# (trace, edit, the FAIL line `verify` prints for the edited trace)
FAILING_EDITS = {
    "chain_record_extra_key": (
        "chain", _chain_stage_edit(lambda stages: stages[0].update(extra=0)),
        "FAIL chain-commitments-in-sets: stage records disagree with the "
        "chain at: [0]"),
    "chain_attempt_extra_key": (
        "chain", _chain_stage_edit(
            lambda stages: stages[4]["attempts"][0].update(extra=0)),
        "FAIL chain-commitments-in-sets: stage records disagree with the "
        "chain at: [4]"),
    "chain_record_without_committed_cells": (
        "chain", _chain_stage_edit(
            lambda stages: stages[2].pop("committed_cells")),
        "FAIL chain-commitments-in-sets: stage records disagree with the "
        "chain at: [2]"),
    "many_family_arity_4": (
        "many", _family_edit(lambda fam: fam.update(arity=4)),
        "FAIL many-subtuples-generic: family arity 4, but each subtuple "
        "holds 3 streams"),
    "many_family_of_2_sets": (
        "many", _family_edit(lambda fam: fam["sets"].__delitem__(
            slice(2, None))),
        "FAIL many-subtuples-generic: 3 stages need 3 dense sets, "
        "family has 2"),
    "wide_family_of_3_sets": (
        "wide", _family_edit(lambda fam: fam["sets"].__delitem__(
            slice(3, None))),
        "FAIL wide-decode-roundtrip: 3 steps need 4 dense sets, "
        "family has 3"),
}


@pytest.mark.parametrize("name", list(FAILING_EDITS))
def test_edits_that_fail_verify_name_their_fault(tmp_path, len_family,
                                                 plane_family, name, capsys):
    """Edited records and families that do not fit their trace fail one
    item with a one-line detail, never an exception text."""
    trace, edit, line = FAILING_EDITS[name]
    path = {"chain": lambda: _chain_trace(tmp_path, plane_family),
            "many": lambda: _product_trace(tmp_path),
            "wide": lambda: _wide_trace(tmp_path, len_family)}[trace]()
    capsys.readouterr()
    assert main(_verify_edited(path, edit)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert line in lines
    assert [ln for ln in lines if ln.startswith("FAIL ")] == [line]
    assert not [ln for ln in lines if "exception:" in ln]


@pytest.mark.parametrize("kind", ["pair", "many"])
def test_a_boundary_past_the_scan_cap_fails_its_decode_in_one_line(
        tmp_path, len_family, kind, capsys):
    """A boundary in the load range whose decode would scan past the
    decoders' cap of 2^22 bits fails the decode item, naming the boundary
    and the cap, not with an exception text."""
    path = (_pair_trace(tmp_path, len_family) if kind == "pair"
            else _many_trace(tmp_path))

    def edit(obj):
        obj["boundaries"][0] = 2 ** 22 - 1

    capsys.readouterr()
    assert main(_verify_edited(path, edit)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert (f"FAIL {kind}-decode-roundtrip: boundary 4194303 needs a scan "
            f"budget of 4194311 bits, past the decoders' cap of 4194304"
            in lines)
    assert not [ln for ln in lines if "exception:" in ln]
