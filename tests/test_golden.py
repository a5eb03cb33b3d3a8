"""Golden bytes: fixed-seed CLI traces, their verify output, search budgets.

Each trace kind is built once through `cli.main` with fixed seeds; the
sha256 of the trace file and of the `verify` stdout must match digests
recorded from an earlier release, so any change to trace encoding, the
envelope layout or verify's report shows up here. The long pair case
grows its stage strings past the 4096 bits where `BitString.stable_key`
switches from the 0/1 text to run JSON; that key seeds densifier freedom,
so both branches are pinned. The non-ASCII seed of the utf8 plane case
pins how the trace writer escapes text. The budgets that
`meets_family` picks by default decide verdicts, so they are pinned too,
one per filter shape.
"""

import hashlib
import json

import pytest

from forcing_lab.bits import BitStream, BitString, PrngTail
from forcing_lab.cli import main
from forcing_lab.dense import family_from_spec, min_length_family
from forcing_lab.generic import meets_family
from forcing_lab.plane import GenericPlane, PlaneCondition

COHEN = {"carrier": "cohen", "seed": "gold-fam",
         "sets": [{"type": "min-length"}, {"type": "pattern", "word": "101"},
                  {"type": "parity", "parity": 1}] * 3}
PRODUCT = {"carrier": "product", "arity": 2,
           "sets": [{"type": "min-length"}, {"type": "separating"},
                    {"type": "coord-min-length", "coord": 1}] * 2}
LEN = {"carrier": "cohen", "sets": [{"type": "min-length"}] * 10}
LONG_WORDS = ["".join(f"{b:08b}" for b in hashlib.sha256(
    f"gold-long-{j}".encode()).digest()) * 4 for j in range(5)]
LONG = {"carrier": "cohen", "seed": "gold-long",
        "sets": [s for j, w in enumerate(LONG_WORDS)
                 for s in ({"type": "pattern", "word": w},
                           {"type": "parity", "parity": j % 2})]}
PLANE = {"carrier": "plane", "seed": "gold-plane",
         "sets": [{"type": "square"}, {"type": "square"},
                  {"type": "cell", "row": 0}, {"type": "square"},
                  {"type": "cell", "row": 2}, {"type": "square"}]}

# case -> (sha256 of the trace file, sha256 of `verify` stdout); a case is
# named after its trace kind unless KIND says otherwise
GOLDEN = {
    "pair": ("d7fcb989639327ee5fe9e3cb2583be03bdbb64bb3552130f7f69d3a1cae3742f",
             "7f60e95db90cfd3c7ad22c6e8a99a112fa1a74865a6a1b50770c00153059f28c"),
    "many": ("f1a890b15ecd18eb22dfac6d1b2cc8e8a39692ae5a3391a2d89b2149d927b39a",
             "1b133125284c7cccd50b270d5f5706c834528dc2d7e38bcc9b1dd2e7fbab6b0f"),
    "wide": ("75e0c215d5a75b0331d802b26df3a70cf559ba9b4c27126d6f0ba7b7c9039cb4",
             "a7bcc3e6339f986f78af2165408f289a8e5071ba5c8afc0100d3f5db660ae741"),
    "generic-plane": (
        "ccf21ae81ac05fdb845723419e969aa6ede51cdf74c4a35b6968405aedc8b428",
        "8ac5d596de240e77502a69abc5b7286055df2822587369bc57b7772d22a7b958"),
    "chain-bound": (
        "3cf561b9629cf80970e4d85e68bb86d2d5261d1fee3f77403aa62005d88159b1",
        "5de610eaa0563adc46f7c1b603980b519499d071af7d1bdfe1af273a45f740b4"),
    "pair-long": (
        "d6ea688e50b41486374b844062abc1ef0eb6f31342ac664f9cf3cc212c5c901f",
        "0ba708321014ed54fa3e40112732160e9741e8f1a9436b0faf5c14e7c6f62423"),
    "generic-plane-utf8": (
        "9e6a54ddfcf1db96d27be9691d2e52085eaa765f8286783df14481f529475ded",
        "8ac5d596de240e77502a69abc5b7286055df2822587369bc57b7772d22a7b958"),
}
KIND = {"pair-long": "pair", "generic-plane-utf8": "generic-plane"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    fams = {}
    for name, spec in (("cohen", COHEN), ("product", PRODUCT), ("len", LEN),
                       ("long", LONG), ("plane", PLANE)):
        fams[name] = tmp / f"{name}.json"
        fams[name].write_text(json.dumps(spec))
    out = {k: tmp / f"{k}.json" for k in GOLDEN}
    runs = [
        ["entangle-pair", "--family", fams["cohen"], "--payload", "seed:g1",
         "--stages", "9", "--out", out["pair"]],
        ["entangle-pair", "--family", fams["long"], "--payload", "seed:g2",
         "--stages", "9", "--out", out["pair-long"]],
        ["entangle-many", "--k", "3", "--family", fams["product"],
         "--payload", "hex:b7", "--stages", "6", "--seed", "gold-many",
         "--out", out["many"]],
        ["entangle-wide", "--family", fams["len"], "--payload", "bits:10110",
         "--steps", "5", "--out", out["wide"]],
        ["build-generics", "--family", fams["plane"], "--rows", "3",
         "--horizon", "6", "--seed", "gold-rows",
         "--out", out["generic-plane"]],
        ["build-generics", "--family", fams["plane"], "--rows", "3",
         "--horizon", "6", "--seed", "é-ü",
         "--out", out["generic-plane-utf8"]],
        ["bound-chain", "--family", fams["plane"], "--rows", "3",
         "--from-generics", out["generic-plane"], "--seed", "gold-fill",
         "--out", out["chain-bound"]],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) == 0
    return out


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_and_verify_bytes_match_golden(golden_runs, case, capsys):
    path = golden_runs[case]
    assert json.loads(path.read_text())["kind"] == KIND.get(case, case)
    capsys.readouterr()
    assert main(["verify", "--trace", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert (_sha(path.read_bytes()), _sha(stdout.encode())) == GOLDEN[case]


def test_default_budgets_per_filter_shape():
    cohen = min_length_family(12)
    stream = BitStream.from_prefix("0110" * 10, PrngTail("b"))
    assert meets_family(stream, cohen, 5).budget == 61
    assert meets_family(BitString.from01("01" * 50), cohen, 5).budget == 100
    assert meets_family(BitString.from01("0110"), cohen, 5).budget == 21

    product = family_from_spec({"carrier": "product", "arity": 2,
                                "sets": [{"type": "min-length"}] * 8})
    pair = (stream, BitString.from01("1" * 70))
    assert meets_family(pair, product, 4).budget == 70

    plane_fam = family_from_spec({"carrier": "plane",
                                  "sets": [{"type": "square"}] * 8})
    plane = GenericPlane(
        commitments=PlaneCondition({(1, 9): 1, (4, 2): 0}),
        rows={11: BitStream.constant(1)}, fill_seed="p")
    assert meets_family(plane, plane_fam, 6).budget == 14
