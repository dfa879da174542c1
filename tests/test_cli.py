import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gl2tors import cli, groups, verify
from gl2tors.bounds import SIEVE_CAP
from gl2tors.cli import EXIT_USAGE, main
from gl2tors.errors import UsageError
from gl2tors.groups import NamedGroupId, Subgroup, named_group, subgroup_from_json
from gl2tors.lemmas import SL2Word, conjugate_into_normalizer
from gl2tors.modarith import Mat2
from gl2tors.stabilizers import exhaustive_spectrum
from gl2tors.verify import HARNESS_IDS

DELTA_U1_11 = '{"modulus": 11, "generators": [[[4,0],[0,4]],[[1,0],[0,10]],[[1,1],[0,1]]]}'
DELTA_U2_11 = '{"modulus": 11, "generators": [[[4,0],[0,4]],[[10,0],[0,1]],[[1,1],[0,1]]]}'
# a two-generated subgroup of Borel(11) of order 110 with full determinant
# image, on whose diagonal image the exponent congruence fails
BOREL_CONG_11 = '{"modulus": 11, "generators": [[[1,0],[0,2]],[[1,1],[0,1]]]}'
BOREL_7 = '{"modulus": 7, "generators": [[[3,0],[0,1]],[[1,1],[0,1]]]}'
# the non-split Cartan normalizer mod 47: a generator of the non-split Cartan
# and diag(1, -1)
NORM_NONSPLIT_47 = '{"modulus": 47, "generators": [[[1,20],[4,1]],[[1,0],[0,46]]]}'
# groups that classify places in NormSplit and in NormNonsplit, each by a
# conjugator that is not scalar
NORM_SPLIT_7 = '{"modulus": 7, "generators": [[[6,6],[3,6]],[[0,2],[1,0]]]}'
NORM_NONSPLIT_11 = '{"modulus": 11, "generators": [[[8,3],[0,3]],[[6,6],[2,4]]]}'
FIELD = '{"label": "ex", "merel_constant": 210, "lv14_bound": 13, "pdi2_primes": [7,11,23]}'


def test_sieve_text(capsys):
    assert main(["sieve", "--max", "100"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["7", "11", "23", "31", "43", "47", "59", "67", "71", "79", "83"]


def test_sieve_json(capsys):
    assert main(["--format", "json", "sieve", "--max", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"limit": 12, "primes": [7, 11]}


def test_sieve_at_cap(capsys):
    assert main(["--format", "json", "sieve", "--max", str(SIEVE_CAP)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert captured.err == "" and payload["limit"] == SIEVE_CAP
    primes = payload["primes"]
    assert primes[:4] == [7, 11, 23, 31] and primes[-1] == 999983 and len(primes) == 32747
    assert all(p % 36 in (7, 11, 23, 31, 35) for p in primes)
    assert primes == sorted(set(primes))


def test_sieve_past_cap_exit_2(capsys):
    assert main(["sieve", "--max", str(SIEVE_CAP + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sieve limit {SIEVE_CAP + 1} is over the cap of {SIEVE_CAP}\n"


def test_order(capsys):
    assert main(["order", "--modulus", "6"]) == 0
    assert capsys.readouterr().out.split() == ["6", "288"]


def test_order_csv_header(capsys):
    assert main(["--format", "csv", "order", "--modulus", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["modulus,order", "5,480"]


def test_decompose(capsys):
    assert main(["decompose", "--ell", "5", "--matrix", "0,-1,1,0"]) == 0
    assert capsys.readouterr().out.strip() == "U^4 L^1 U^4"


def test_decompose_json(capsys):
    assert main(["--format", "json", "decompose", "--ell", "7", "--matrix", "1,1,0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["word"] == [["U", 1]]


def test_decompose_bad_matrix(capsys):
    assert main(["decompose", "--ell", "5", "--matrix", "1,2,3"]) == 1
    assert capsys.readouterr() == ("", "error: matrix must be four integers a,b,c,d\n")


def test_decompose_wrong_det():
    assert main(["decompose", "--ell", "5", "--matrix", "2,0,0,1"]) == 2


def test_decompose_failed_round_trip_exit_3(capsys, monkeypatch):
    """A shear word that does not evaluate back to its matrix is a
    falsification event, with or without python -O."""
    monkeypatch.setattr(SL2Word, "evaluate", lambda self: Mat2.identity(self.ell))
    assert main(["decompose", "--ell", "5", "--matrix", "0,-1,1,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("falsified: shear word U^4 L^1 U^4 does not evaluate to")


def test_classify_json(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(DELTA_U1_11)
    assert main(["--format", "json", "classify", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "Borel"
    assert payload["borel_refinement"]["delta_kind"] == "Delta1"


def test_spectrum_csv(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(DELTA_U1_11)
    assert main(["--format", "csv", "spectrum", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "point,stab_order,index"
    assert "(0:1),11,10" in lines


def test_spectrum_exhaustive_json(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(DELTA_U1_11)
    assert main(["--format", "json", "spectrum", "--input", str(path), "--exhaustive"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"]["0,1"] == 10
    assert len(payload["entries"]) == 120


def _group_text(ell: int, gens) -> str:
    return json.dumps({"modulus": ell, "generators": [[[a, b], [c, d]] for a, b, c, d in gens]})


def _nonsplit_cartan_text(ell: int) -> str:
    cartan = named_group(NamedGroupId.NONSPLIT_CARTAN, ell)
    return _group_text(ell, [x.entries() for x in cartan.generators])


@st.composite
def _exhaustive_input(draw):
    """A group file at ell in {3, 5, 7, 11, 13}: the trivial group (one
    orbit per nonzero vector), the non-split Cartan (one orbit of all of
    them), or the closure of one to three drawn invertible matrices."""
    ell = draw(st.sampled_from([3, 5, 7, 11, 13]))
    kind = draw(st.sampled_from(["trivial", "nonsplit", "drawn"]))
    if kind == "trivial":
        return _group_text(ell, [])
    if kind == "nonsplit":
        return _nonsplit_cartan_text(ell)
    entry = st.integers(0, ell - 1)
    matrix = st.tuples(entry, entry, entry, entry).filter(lambda m: (m[0] * m[3] - m[1] * m[2]) % ell)
    return _group_text(ell, draw(st.lists(matrix, min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_exhaustive_input())
@example(text=_group_text(13, []))
@example(text=_nonsplit_cartan_text(13))
def test_exhaustive_reply_matches_json_dumps(text, tmp_path, capsys):
    """spectrum --exhaustive fills a cached template instead of calling
    json.dumps, and its JSON reply is json.dumps(payload, sort_keys=True)
    byte for byte; its text rows list the points in (c, d) order."""
    path = tmp_path / "g.json"
    path.write_text(text)
    g = subgroup_from_json(json.loads(text))
    spectrum = exhaustive_spectrum(g)
    payload = {"group_order": g.order, "entries": {f"{c},{d}": i for (c, d), i in spectrum.items()}}
    assert main(["--format", "json", "spectrum", "--input", str(path), "--exhaustive"]) == 0
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"
    assert main(["spectrum", "--input", str(path), "--exhaustive"]) == 0
    rows = [f"({c},{d})\t{g.order // i}\t{i}\n" for (c, d), i in spectrum.items()]
    assert capsys.readouterr().out == "".join(rows)


def test_emit_refuses_a_numpy_integer(capsys):
    """A value that JSON cannot hold, such as a numpy integer leaked from the
    array arithmetic, raises TypeError instead of printing as a string."""
    with pytest.raises(TypeError, match="int64"):
        cli._emit("json", {"order": np.int64(4416)}, [], ("order",))
    assert capsys.readouterr().out == ""


# sha256 of the stdout of each group verb and format: how the rows are built
# may change, the bytes printed may not. The classify cases cover all three
# targets: Borel, NormSplit and NormNonsplit, and the three replies of the
# Borel refinement past ell >= 11: Delta1, Delta2 and a failed precondition.
_GROUPS = {
    "BOREL_7": BOREL_7,
    "NORM_SPLIT_7": NORM_SPLIT_7,
    "NORM_NONSPLIT_11": NORM_NONSPLIT_11,
    "DELTA_U1_11": DELTA_U1_11,
    "DELTA_U2_11": DELTA_U2_11,
    "BOREL_CONG_11": BOREL_CONG_11,
    "NORM_NONSPLIT_47": NORM_NONSPLIT_47,
}
_PINNED_STDOUT = {
    ("BOREL_7", "spectrum", "text"): "03c9dfab20d9b47e5288c2023321cb5538d7daae5ddf18c36198dc46ef53761e",
    ("BOREL_7", "spectrum", "csv"): "559e0468c0d2ecc28ce7c1febe77d09ab4401e60209fe83858b7f86dcc494ff3",
    ("BOREL_7", "spectrum", "json"): "8fc05d690522aa13973c340356bdbd56b361057c71fbcb4d2b9f6f65bf980890",
    ("BOREL_7", "spectrum --exhaustive", "text"): "32c27601da7c6d6f7a90c19e7796d687f0f5eb5f8d7e8ae41d3902240a4c16c6",
    ("BOREL_7", "spectrum --exhaustive", "csv"): "d27a62b3e4b6c990181174ede63d7a7f6a1ed6d08d73995fd8fd7ca2e6c85aca",
    ("BOREL_7", "spectrum --exhaustive", "json"): "633e410b00f3d96f0d96ac7c93da45842543a0a1cc57f4c6baa53684fc4c516d",
    ("BOREL_7", "classify", "text"): "79c598f0dc4e9d737af25d3f74b6f21073df747345335efbba9d3e6e7f3b4f71",
    ("BOREL_7", "classify", "csv"): "afae40488aa0e8066d554f9c405871e6bfb7d05d3869238a7e4a0a8b0d70db8d",
    ("BOREL_7", "classify", "json"): "65906e47df945408fcf071e17e985355dc4eaddbca03808956dc92be98727db3",
    ("NORM_SPLIT_7", "classify", "text"): "04fabcf7db6ff49775a541cd8d1879e80effa252932526b4323889d791941e89",
    ("NORM_SPLIT_7", "classify", "csv"): "1bfb99628a2b716d7201daa53bb52cb33ec66c39929f3c46303eb04e928ed015",
    ("NORM_SPLIT_7", "classify", "json"): "d6f2184b29e1068ab99763d991d98438925d5cdddb76a73f9012fb79151d5dde",
    ("NORM_NONSPLIT_11", "classify", "text"): "aabf0b8d86108ce4e65e14cefdc06a2bd0c22a87a207ea4468a633f6238f4ae7",
    ("NORM_NONSPLIT_11", "classify", "csv"): "5b588a04a79793be5b64d1cc7b8efe57615484281bb3a932c8b16b5b03a1359e",
    ("NORM_NONSPLIT_11", "classify", "json"): "487edb452bba6b0d150a62f1d7856da0b8768a5cdb2b12587cdc94c69ea26ae1",
    ("DELTA_U1_11", "classify", "text"): "d9b308409558fa2c570d1bdabd900063fe39d9968a25e8017dc6a142286802e8",
    ("DELTA_U1_11", "classify", "csv"): "9c0304fe5b04ef450698ea2db928826a56811f4a05486f32fcbcabcc66b401a7",
    ("DELTA_U1_11", "classify", "json"): "1e283020aa02c29d3fb7190d08ace05b71ec781357f6e37b11d1d0d297e28ae4",
    ("DELTA_U2_11", "classify", "text"): "e4b369f0a3a207c9cbbbd6e3cd07f00fe04fa2a006447a3b7bb6482bed055ab8",
    ("DELTA_U2_11", "classify", "csv"): "9f1fa797c3959a0bbd5e26ebf2813ce78aeae1f66c46cc3f04ae950007e0e988",
    ("DELTA_U2_11", "classify", "json"): "4a171a2038bb400aa0b803083a6ac8f9f6e1b616809e36bf57c62979683057ab",
    ("BOREL_CONG_11", "classify", "text"): "1a1e85b5916b1acf5c9ae62c7ba887627f4db177ad41f570a32b92579e3da6f9",
    ("BOREL_CONG_11", "classify", "csv"): "bd902dcfbb0c97e3ac49a15aa329f50afd4af587d4dbf6fc33ac5677e8a7270e",
    ("BOREL_CONG_11", "classify", "json"): "dda257b97fb8331f3f9079cea4ecb609958872808f7769dbfa6723bfc19d1789",
    # two-digit coordinates: text and csv rows run in (c, d) order, so (1,2)
    # precedes (1,10), while the JSON keys sort as strings, "1,10" before "1,2"
    ("DELTA_U1_11", "spectrum --exhaustive", "text"): "7c6ac12ac48b224ad221f8fe1f42b4a01e84f377b2ca1dcd64421bc5052bc467",
    ("DELTA_U1_11", "spectrum --exhaustive", "csv"): "5eb6a9779471ac03d6ef76d0f605a92d9d0d39414ffa2702e0f1c3771b0a7027",
    ("DELTA_U1_11", "spectrum --exhaustive", "json"): "594930b55318f35098a9f3f9b6b7c14cde0d8b9a234bc4bd7ec8a03ca34970b9",
    # a group whose entries closure computes in numpy blocks (order 4416)
    ("NORM_NONSPLIT_47", "spectrum", "text"): "17288d7dbb6b4d34c5c84a4e4a0bb69fed6d75b4a80d6faceac65167356d4564",
    ("NORM_NONSPLIT_47", "spectrum", "csv"): "f52f0b78acc86987cfbfd05cee07b505f985d827d55971a12deebdca53ece39a",
    ("NORM_NONSPLIT_47", "spectrum", "json"): "cd60f32b61f7ef60d4e04a506e5d25de32f25604efdf41b8b9244fd3c6974bac",
    ("NORM_NONSPLIT_47", "spectrum --exhaustive", "text"): "2399fe446776065a2e7a558045d00f7c04b2a29ae16eebb4a14c59c4b0a2d0bd",
    ("NORM_NONSPLIT_47", "spectrum --exhaustive", "csv"): "c35cab73c51f74b3ca55c7e620b80dc07bcfeffe57e01b80a9fcad736a58721e",
    ("NORM_NONSPLIT_47", "spectrum --exhaustive", "json"): "e230d169a5e5a3ed7c8b7e7008df07e6b536db854dc77eab63bffb6f73e12ee3",
}


def _pinned_id(group: str, verb: str, fmt: str) -> str:
    # the BOREL_7 cases keep the ids they had before the other groups joined
    return "-".join((verb, fmt) if group == "BOREL_7" else (group, verb, fmt))


@pytest.mark.parametrize(
    "group, verb, fmt", [pytest.param(*key, id=_pinned_id(*key)) for key in sorted(_PINNED_STDOUT)]
)
def test_group_verb_stdout_pinned(group, verb, fmt, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(_GROUPS[group])
    command, *flags = verb.split()
    assert main(["--format", fmt, command, "--input", str(path), *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == _PINNED_STDOUT[group, verb, fmt]


# sha256 of `verify --format json` stdout for the harnesses that enumerate
# subgroups, cyclic subgroups or SL2 matrices: how they are enumerated may
# change, the bytes may not
_PINNED_VERIFY_STDOUT = {
    "easy-d --ell-max 5": "61225549014fab9b3dd23d0a35d1ff5c09ec2649a4cb98c942918be6ca10e410",
    "classify --ell-max 5": "2dfbc10f6a678b3985026b2d43bc869a710e6c39d790c8ec96f6529515ff1bb6",
    "easy-d": "506966274527eeae4045f774c715ffae581241c8a96a821516e897624ff528ce",
    "classify": "81d8229067fdefaccf0458060d072bea58d342fba1872c726eb768bde2a52c3d",
    "bl": "88a2acd288ac840dec378a233446d754e9d9a5c5dd9f98882616dbb3b680bcee",
    "not-bl": "df97baa048752abeb813858aaeebcfdda247cd174cdb7842a01ea18ae06b0697",
    "cyclic": "7998b81a0f10c488682a326ff73a9adc0e3c83c6c7c64932dda91b854cc32f54",
    "normalizers": "026ea356fb5ffcef0bcdb0ba69e15b78e41157feb69cb59158fa2da696adb5c8",
    "ns-nns": "98fe2c4275d35797583ef9821cff8e0d290fec191acac5d4b5e816e6e4ecd670",
    "ab-subgp --trials 5": "0ce410f78ccec99205405fdfe5aa2bb26bd7b46174d3474870ccde807839e2ec",
    "sl": "b33e4f48b64cee95541996fd203777e5c9a637b86dd74386aa2d9793a06f6fd1",
    "easy-d --ell-max 11 --trials 3 --seed 1": (
        "477fee170d76e94f54bde1f2735c16fed00cc973e9464235831763398ccc5930"
    ),
}


@pytest.mark.parametrize("harness", sorted(_PINNED_VERIFY_STDOUT))
def test_enumeration_harness_stdout_pinned(harness, capsys, monkeypatch, harness_run):
    # the CLI prints a session-shared run, which the count tests of the same call read too
    monkeypatch.setattr(cli, "run_harness", harness_run)
    assert main(["--format", "json", "verify", *harness.split()]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == _PINNED_VERIFY_STDOUT[harness]


def test_classify_paths_read_no_element_set(tmp_path, capsys, monkeypatch):
    """The classify verb, the normalizer witness on every group the ns-nns
    harness checks mod 5, and the classify, bl and not-bl harnesses read
    entries and generators alone: reading Subgroup.elements raises
    throughout."""

    def forbidden(self):
        raise AssertionError("Subgroup.elements was read")

    monkeypatch.setattr(Subgroup, "elements", property(forbidden))
    path = tmp_path / "g.json"
    codes = []
    for text in (NORM_SPLIT_7, NORM_NONSPLIT_11, NORM_NONSPLIT_47):
        path.write_text(text)
        codes.append(main(["--format", "json", "classify", "--input", str(path)]))
    # the full NormNonsplit(47) has no point of odd index
    assert codes == [0, 0, 2]
    assert capsys.readouterr().err == "error: no projective point with odd stabilizer index\n"
    witnesses = []

    def record(h):
        if h.n == 5:
            witnesses.append(conjugate_into_normalizer(h))

    monkeypatch.setattr(verify, "conjugate_into_normalizer", record)
    assert verify.harness_ns_nns().ok
    assert len(witnesses) == 110
    assert verify.run_harness("classify", ell_max=5).checked == 121
    assert verify.run_harness("bl").checked == 24
    assert verify.run_harness("not-bl", ell_max=11).checked == 56


def test_array_group_verbs_build_no_entry_tuples(tmp_path, capsys, monkeypatch):
    """On NormNonsplit(47), whose closure holds its entries in numpy blocks,
    spectrum, spectrum --exhaustive and classify read the entry array alone:
    reading the entry tuples, or anything built from them, raises."""

    def forbidden(self):
        raise AssertionError("Subgroup.entries was read")

    monkeypatch.setattr(Subgroup, "entries", property(forbidden))
    path = tmp_path / "g.json"
    path.write_text(NORM_NONSPLIT_47)
    for flags in ([], ["--exhaustive"]):
        assert main(["--format", "json", "spectrum", "--input", str(path), *flags]) == 0
        assert json.loads(capsys.readouterr().out)["group_order"] == 4416
    # the full NormNonsplit(47) has no point of odd index
    assert main(["--format", "json", "classify", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: no projective point with odd stabilizer index\n"


@pytest.mark.parametrize("flags", [[], ["--exhaustive"]])
def test_spectrum_builds_no_group_elements(flags, tmp_path, capsys, monkeypatch):
    """Spectra read the group's entry array and never its Mat2 element set:
    the trusted constructor builds at most one matrix per generator."""
    built = []
    trusted = Mat2._reduced

    def counting(*args):
        built.append(args)
        return trusted(*args)

    monkeypatch.setattr(Mat2, "_reduced", staticmethod(counting))
    path = tmp_path / "g.json"
    path.write_text(NORM_NONSPLIT_47)
    assert main(["--format", "json", "spectrum", "--input", str(path), *flags]) == 0
    assert json.loads(capsys.readouterr().out)["group_order"] == 4416
    assert len(built) <= 2


def test_spectrum_non_integer_entry_exit_2(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"modulus": 5, "generators": [[[1.0, 1], [0, 1]]]}')
    assert main(["spectrum", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed subgroup input")


@pytest.mark.parametrize(
    "text, flags, err",
    [
        (
            '{"modulus": 5, "generators": [[[1, 1, 7], [0, 1, 9], [3, 3]]]}',
            [],
            "error: malformed subgroup input: ",
        ),
        (
            '{"modulus": 1009, "generators": [[[1, 1], [0, 1]]]}',
            ["--exhaustive"],
            "error: exhaustive spectrum mod 1009 has 1018080 vectors, over the cap of ",
        ),
        (
            '{"modulus": 1, "generators": []}',
            [],
            "error: modulus must be an integer >= 2, got 1\n",
        ),
    ],
)
def test_spectrum_rejected_input_exit_2(text, flags, err, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(text)
    misses = cli._exhaustive_reply.cache_info().misses
    assert main(["spectrum", "--input", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(err)
    # past the cap no part of the reply is built, not even the 10^6 keys of ell = 1009
    assert cli._exhaustive_reply.cache_info().misses == misses


def test_input_past_closure_cap_exit_2(tmp_path, capsys, monkeypatch):
    """Input read by subgroup_from_json closes under closure's default cap.
    The default is lowered to 41 here, one below the order of the BOREL_7
    input, since a group past DEFAULT_CLOSURE_CAP = 10^7 would take minutes
    and gigabytes to reach it."""
    assert groups.closure.__defaults__ == (groups.DEFAULT_CLOSURE_CAP,)
    assert groups.subgroup_from_json(json.loads(BOREL_7)).order == 42
    monkeypatch.setattr(groups.closure, "__defaults__", (41,))
    path = tmp_path / "g.json"
    path.write_text(BOREL_7)
    assert main(["spectrum", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closure exceeded cap of 41 elements\n"


def test_bound_json(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(FIELD)
    assert main(["--format", "json", "bound", "--input", str(path), "--degree", "17"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_k"] == 13
    assert payload["preservation"]["preserved"] is True


def test_bound_past_prime_range_cap_exit_2(tmp_path, capsys):
    # p_k = 1000003: the coprimality certificate would need every prime up
    # to p_k, past the cap of primerange
    path = tmp_path / "f.json"
    path.write_text('{"label": "big", "merel_constant": 1000003, "lv14_bound": 1}')
    assert main(["bound", "--input", str(path), "--degree", "1000033"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: prime range end 1000004 is over the cap of 1000001\n"


def test_verify_exit_zero(capsys):
    assert main(["verify", "sl", "--ell-max", "5"]) == 0
    assert "ok\tTrue" in capsys.readouterr().out


def test_verify_json(capsys):
    assert main(["--format", "json", "verify", "l-part", "--trials", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["checked"] == 50


@pytest.mark.parametrize(
    "argv", [["sl", "--ell-max", "3"], ["l-part", "--trials", "-5"], ["l-part", "--trials", "0"]]
)
def test_verify_nothing_to_check_exit_2(argv, capsys):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, ignored",
    [
        (["cyclic", "--trials", "3"], "--trials"),
        (["sl", "--ell-max", "5", "--trials", "7", "--seed", "9"], "--trials, --seed"),
        (["classify", "--ell-max", "5", "--seed", "0"], "--seed"),
        (["bl", "--ell-max", "11"], "--ell-max"),
    ],
)
def test_verify_ignored_option_exit_1(argv, ignored, capsys):
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: harness {argv[0]} does not take {ignored}\n"


@pytest.mark.parametrize(
    "argv, given",
    [
        (["--ell-max", "5", "--trials", "3"], "--trials"),
        (["--ell-max", "7", "--seed", "9"], "--seed"),
        (["--trials", "3", "--seed", "9"], "--trials, --seed"),
    ],
)
def test_verify_easy_d_sampling_below_ell_11_exit_1(argv, given, capsys):
    assert main(["verify", "easy-d", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: harness easy-d does not take {given} unless --ell-max is at least 11\n"
    )


@pytest.mark.parametrize("witness", ["a,b", "1", "1,2,3", ""])
def test_classify_bad_witness_exit_1(witness, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(DELTA_U1_11)
    assert main(["classify", "--input", str(path), "--witness", witness]) == 1
    err = capsys.readouterr().err
    assert err == "error: witness must be two integers c,d\n"


def test_classify_witness_needs_odd_prime_modulus_exit_2(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"modulus": 9, "generators": [[[1,1],[0,1]]]}')
    assert main(["classify", "--input", str(path), "--witness", "3,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected an odd prime, got 9\n"


def test_classify_explicit_witness(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(DELTA_U1_11)
    assert main(["--format", "json", "classify", "--input", str(path), "--witness", "1,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "Borel" and payload["witness"] == [1, 3]


def test_missing_input_file():
    assert main(["classify", "--input", "/nonexistent/g.json"]) == 1


# input files that json.loads cannot turn into a value: bytes that are not
# UTF-8 (a UTF-16 byte order mark), nesting past the recursion limit, and an
# integer literal past Python's 4300-digit limit on int conversion
_UTF16_BOM = b"\xff\xfe"
_DEEP_NESTING = b"[" * 100_000
_LONG_MODULUS = b'{"modulus": ' + b"1" * 5001 + b', "generators": []}'
_UNPARSABLE = {
    "utf16-bom": (_UTF16_BOM, "'utf-8' codec can't decode byte 0xff in position 0"),
    "deep-nesting": (_DEEP_NESTING, "maximum recursion depth exceeded"),
    "long-modulus": (_LONG_MODULUS, "Exceeds the limit (4300 digits) for integer string conversion"),
}
_INPUT_VERBS = {"spectrum": "subgroup", "classify": "subgroup", "bound": "field"}


@pytest.mark.parametrize("verb", sorted(_INPUT_VERBS))
@pytest.mark.parametrize("name", sorted(_UNPARSABLE))
def test_unparsable_input_exit_2(name, verb, tmp_path, capsys):
    data, reason = _UNPARSABLE[name]
    path = tmp_path / "in.json"
    path.write_bytes(data)
    assert main([verb, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed {_INPUT_VERBS[verb]} input: {reason}")


def test_unreadable_input_exit_1(tmp_path, capsys):
    """A directory opens with an OSError, as a missing file does."""
    for verb in sorted(_INPUT_VERBS):
        assert main([verb, "--input", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}: ")


# small moduli and entries, so that every drawn group closes in milliseconds
_SMALL_INT = st.integers(-3, 13)
_KEYS = ("modulus", "generators", "label", "merel_constant", "lv14_bound", "pdi2_primes")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _SMALL_INT | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_MATRIX = st.lists(st.lists(_SMALL_INT, min_size=2, max_size=2), min_size=2, max_size=2)
_GROUP_VALUES = st.fixed_dictionaries(
    {"modulus": _SMALL_INT, "generators": st.lists(_MATRIX, max_size=3) | _JSON_VALUES}
)
_FIELD_VALUES = st.fixed_dictionaries(
    {
        "label": st.text(max_size=4) | _JSON_VALUES,
        "merel_constant": st.integers(-2, 400),
        "lv14_bound": st.integers(-2, 400),
        "pdi2_primes": st.lists(st.integers(-2, 60), max_size=3) | _JSON_VALUES,
    }
)
_INPUT_BYTES = st.binary(max_size=40) | (_JSON_VALUES | _GROUP_VALUES | _FIELD_VALUES).map(
    lambda value: json.dumps(value).encode()
)
_INPUT_ARGV = (["spectrum"], ["spectrum", "--exhaustive"], ["classify"], ["bound"], ["bound", "--degree", "3"])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.sampled_from(_INPUT_ARGV), data=_INPUT_BYTES)
@example(argv=["spectrum"], data=_UTF16_BOM)
@example(argv=["classify"], data=_UTF16_BOM)
@example(argv=["bound"], data=_UTF16_BOM)
@example(argv=["spectrum"], data=_DEEP_NESTING)
@example(argv=["classify"], data=_DEEP_NESTING)
@example(argv=["bound"], data=_DEEP_NESTING)
@example(argv=["spectrum"], data=_LONG_MODULUS)
@example(argv=["classify"], data=_LONG_MODULUS)
@example(argv=["bound"], data=_LONG_MODULUS)
def test_input_verbs_exit_cleanly_on_any_file(argv, data, tmp_path, capsys):
    """Whatever bytes an --input file holds, the verbs that read one exit
    with a code of the CLI (0 to 3) and print no traceback; main() lets any
    other exception through, which fails the test."""
    path = tmp_path / "in.json"
    path.write_bytes(data)
    code = main([argv[0], "--input", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in captured.err


def test_unknown_verb():
    assert main(["frobnicate"]) == 1


def test_precondition_exit(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"modulus": 11, "generators": [[[1,0],[0,10]]]}')
    # no odd-index witness exists for this group of order 2? index 1 at fixed pts
    # use the full Borel instead, whose indices are all even
    path.write_text(
        json.dumps(
            {
                "modulus": 11,
                "generators": [[[2, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 1], [0, 1]]],
            }
        )
    )
    assert main(["classify", "--input", str(path)]) == 2


def test_calls_in_one_process_share_no_state(capsys):
    """No call's options or errors carry into the next."""
    assert main(["order"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: gl2tors order" in captured.err
    assert main(["order", "--modulus", "6"]) == 0
    assert capsys.readouterr() == ("6\t288\n", "")
    assert main(["--format", "json", "sieve", "--max", "12"]) == 0
    assert json.loads(capsys.readouterr().out) == {"limit": 12, "primes": [7, 11]}
    assert main(["order", "--modulus", "5"]) == 0
    assert capsys.readouterr() == ("5\t480\n", "")


# imports gl2tors, runs one call of each verb, and prints the exit codes and
# whether any sympy module, or argparse, was loaded
_NO_SYMPY_SCRIPT = """
import contextlib, io, json, sys
import gl2tors
from gl2tors.cli import main
group, field = sys.argv[1:]
calls = [
    ["order", "--modulus", "2520"],
    ["sieve", "--max", "100"],
    ["decompose", "--ell", "5", "--matrix", "0,-1,1,0"],
    ["bound", "--input", field, "--degree", "17"],
    ["spectrum", "--input", group],
    ["classify", "--input", group],
    ["verify", "classify", "--ell-max", "5"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
loaded = any(name == "sympy" or name.startswith("sympy.") for name in sys.modules)
print(json.dumps({"codes": codes, "sympy": loaded, "argparse": "argparse" in sys.modules}))
"""


def _run_python(*argv: str) -> str:
    """Stdout of a fresh interpreter run with these arguments, importing
    gl2tors from src; a nonzero exit fails the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return proc.stdout


def test_python_m_gl2tors_runs_the_cli(capsys):
    """`python -m gl2tors` runs the CLI from a checkout with no install:
    it exits 0 with the stdout that main prints."""
    assert main(["order", "--modulus", "5"]) == 0
    assert _run_python("-m", "gl2tors", "order", "--modulus", "5") == capsys.readouterr().out


def test_cli_never_loads_sympy(tmp_path):
    group, field = tmp_path / "g.json", tmp_path / "f.json"
    group.write_text(DELTA_U1_11)
    field.write_text(FIELD)
    stdout = _run_python("-c", _NO_SYMPY_SCRIPT, str(group), str(field))
    assert json.loads(stdout) == {"codes": [0] * 7, "sympy": False, "argparse": False}


# runs one verify call and prints its exit code and whether numpy.ma, which
# np.unique and np.isin import on first use, was loaded
_NO_NUMPY_MA_SCRIPT = """
import contextlib, io, json, sys
from gl2tors.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", sys.argv[1], "--ell-max", "5"])
print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules}))
"""


@pytest.mark.parametrize("harness", ["easy-d", "classify"])
def test_enumeration_never_loads_numpy_ma(harness):
    stdout = _run_python("-c", _NO_NUMPY_MA_SCRIPT, harness)
    assert json.loads(stdout) == {"code": 0, "numpy.ma": False}


@pytest.mark.parametrize(
    "argv, usage, reason",
    [
        (
            ["order", "--modulus", "x"],
            "usage: gl2tors order [-h] --modulus MODULUS",
            "argument --modulus: invalid int value: 'x'",
        ),
        (
            ["order"],
            "usage: gl2tors order [-h] --modulus MODULUS",
            "the following arguments are required: --modulus",
        ),
        (
            ["frobnicate"],
            "usage: gl2tors [-h] [--format {text,json,csv}] VERB ...",
            "argument VERB: invalid choice: 'frobnicate' "
            "(choose from verify, classify, spectrum, sieve, bound, order, decompose)",
        ),
    ],
)
def test_usage_error_says_why(argv, usage, reason, capsys):
    """A bad command line exits 1 and prints the usage line, then the reason."""
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"{usage}\nerror: {reason}\n")


_VERB_OPTIONS = {
    "verify": ["--ell-max", "--trials", "--seed"],
    "classify": ["--input", "--witness"],
    "spectrum": ["--input", "--exhaustive"],
    "sieve": ["--max"],
    "bound": ["--input", "--degree"],
    "order": ["--modulus"],
    "decompose": ["--ell", "--matrix"],
}


def test_help_names_every_verb_and_option(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gl2tors ")
    assert all(verb in out for verb in _VERB_OPTIONS)
    for verb, options in _VERB_OPTIONS.items():
        assert main([verb, "-h"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: gl2tors {verb}") and captured.err == ""
        assert all(option in captured.out for option in options)


# The argparse parser that the table-driven parser in gl2tors.cli replaced,
# kept as the reference of test_parser_matches_argparse.
class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and reused by every main() call."""
    parser = _Parser(prog="gl2tors")
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="run a falsification harness")
    p.add_argument("harness", choices=HARNESS_IDS)
    p.add_argument("--ell-max", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("classify", help="classify a subgroup's ambient shape")
    p.add_argument("--input", required=True, help="subgroup JSON file")
    p.add_argument("--witness", default=None, help="row vector c,d with odd index")

    p = sub.add_parser("spectrum", help="degree spectrum of a subgroup")
    p.add_argument("--input", required=True, help="subgroup JSON file")
    p.add_argument("--exhaustive", action="store_true")

    p = sub.add_parser("sieve", help="primes passing the mod-36 filter")
    p.add_argument("--max", type=int, required=True)

    p = sub.add_parser("bound", help="prime bound report for a field input")
    p.add_argument("--input", required=True, help="field input JSON file")
    p.add_argument("--degree", type=int, default=None, help="extension degree to test")

    p = sub.add_parser("order", help="order of the invertible 2x2 matrix group")
    p.add_argument("--modulus", type=int, required=True)

    p = sub.add_parser("decompose", help="shear word for a determinant-1 matrix")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--matrix", required=True, help="entries a,b,c,d")

    return parser


def _reference_outcome(argv: list[str]):
    """("help",), ("error",) or ("ok", vars) of the argparse reference."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return ("ok", vars(_build_parser().parse_args(argv)))
        except SystemExit as exc:
            assert exc.code in (0, EXIT_USAGE)
            assert (exc.code == 0) == out.getvalue().startswith("usage: gl2tors")
            return ("help",) if exc.code == 0 else ("error",)


def _outcome(argv: list[str]):
    """("help",), ("error",) or ("ok", vars) of the parser in gl2tors.cli."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli._parse(argv)
        except UsageError:
            assert err.getvalue().startswith("usage: gl2tors") and out.getvalue() == ""
            return ("error",)
    if args is None:
        assert out.getvalue().startswith("usage: gl2tors")
        return ("help",)
    assert out.getvalue() == err.getvalue() == ""
    return ("ok", vars(args))


_VALUES = ["5", "0", "-1", " 6 ", "6_0", "1.5", "x", "-x", "-1,0,0,-1"]
_FORMATS = ["json", "csv", "text", "xml"]
_NAMES = sorted({name for names in _VERB_OPTIONS.values() for name in names} | {"--format"})
_PREFIXES = ["--mod", "--ex", "--f"]
_SPECIALS = ["-h", "--help", "--bogus", "--"]
_ARGUMENTS = _VALUES + _FORMATS + list(HARNESS_IDS) + ["nope"]
_WORDS = (
    list(_VERB_OPTIONS)
    + ["frobnicate"]
    + _NAMES
    + _PREFIXES
    + [f"{name}={value}" for name in _NAMES + _PREFIXES for value in _VALUES + _FORMATS]
    + _ARGUMENTS
    + _SPECIALS
)


def _spellings(name: str) -> list[str]:
    """The words that name an option: itself and its prefixes from the list."""
    return [name] + [p for p in _PREFIXES if name.startswith(p)]


@st.composite
def _command_lines(draw):
    """An argv from the words above: any list of them; or a verb with
    --format pieces before it and option, value and stray pieces after it;
    or, half the time, a verb with some of its own options, each given a
    value from the list and spelled in full, by a prefix or with "=", in
    any order, and at most one stray piece."""
    words = st.sampled_from(_WORDS)
    mode = draw(st.integers(0, 3))
    if mode == 0:
        return draw(st.lists(words, max_size=8))
    fmt = st.sampled_from(_FORMATS)
    head = st.one_of(
        st.tuples(st.sampled_from(["--format", "--f"]), fmt).map(list),
        fmt.map(lambda f: [f"--format={f}"]),
        words.map(lambda w: [w]),
    )
    verb = draw(st.sampled_from([*_VERB_OPTIONS, "frobnicate"]))
    names = st.sampled_from(_VERB_OPTIONS.get(verb, []) or _NAMES) | st.sampled_from(_NAMES + _PREFIXES)
    value = st.sampled_from(_ARGUMENTS)
    stray = st.one_of(
        st.tuples(names, value).map(list),
        st.tuples(names, value).map(lambda p: [f"{p[0]}={p[1]}"]),
        names.map(lambda n: [n]),
        st.sampled_from([*HARNESS_IDS, "nope"]).map(lambda h: [h]),
        words.map(lambda w: [w]),
    )
    if mode == 1:
        pieces = draw(st.lists(head, max_size=2)) + [[verb]] + draw(st.lists(stray, max_size=5))
        return [word for p in pieces for word in p]
    body = []
    for name in _VERB_OPTIONS.get(verb, []):
        if draw(st.integers(0, 4)) == 0:
            continue
        spelled = draw(st.sampled_from(_spellings(name)))
        if name == "--exhaustive":
            body.append([spelled])
        elif draw(st.booleans()):
            body.append([spelled, draw(st.sampled_from(_VALUES))])
        else:
            body.append([f"{spelled}={draw(st.sampled_from(_VALUES))}"])
    if verb == "verify" and draw(st.integers(0, 4)):
        body.append([draw(st.sampled_from([*HARNESS_IDS, "nope"]))])
    body += draw(st.lists(stray, max_size=1))
    pieces = draw(st.lists(head, max_size=1)) + [[verb]] + draw(st.permutations(body))
    return [word for p in pieces for word in p]


@settings(max_examples=1500, deadline=None)
@given(argv=_command_lines())
@example(argv=["--f", "json", "order", "--mod=6_0"])
@example(argv=["verify", "--ell", " 6 ", "easy-d", "--seed", "-1"])
@example(argv=["spectrum", "--ex", "--input", "-1"])
@example(argv=["decompose", "--ell", "5", "--matrix=-1,0,0,-1"])
@example(argv=["decompose", "--ell", "5", "--matrix", "-1,0,0,-1"])
@example(argv=["order", "--modulus", "5", "--format", "json"])
@example(argv=["--bogus", "-h"])
@example(argv=["verify", "-h", "nope"])
@example(argv=["verify", "nope", "-h"])
@example(argv=["verify", "--", "easy-d"])
def test_parser_matches_argparse(argv):
    """On any command line over this vocabulary the table-driven parser
    exits 1, prints help, or yields the same options as the argparse
    reference; a bare "--", which argparse accepts in places, exits 1."""
    if "--" in argv:
        assert _outcome(argv) == ("error",)
    else:
        assert _outcome(argv) == _reference_outcome(argv)

