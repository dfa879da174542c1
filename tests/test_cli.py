import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gl2tors import cli, groups, verify
from gl2tors.bounds import SIEVE_CAP
from gl2tors.cli import _build_parser, main
from gl2tors.groups import Subgroup
from gl2tors.lemmas import SL2Word, conjugate_into_normalizer
from gl2tors.modarith import Mat2

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


def test_decompose_bad_matrix():
    assert main(["decompose", "--ell", "5", "--matrix", "1,2,3"]) == 1


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
# subgroups or cyclic subgroups: how they are enumerated may change, the
# bytes may not
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
    assert main(["spectrum", "--input", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(err)


def test_input_past_closure_cap_exit_2(tmp_path, capsys, monkeypatch):
    """Input read by subgroup_from_json closes under closure's default cap.
    The default is lowered to 41 here, one below the order of the BOREL_7
    input, since a group past DEFAULT_CLOSURE_CAP = 10^7 would take minutes
    and gigabytes to reach it."""
    assert groups.closure.__defaults__ == (groups.DEFAULT_CLOSURE_CAP,)
    assert groups.subgroup_from_json(BOREL_7).order == 42
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
    """The parser is built once per process; no call's options or errors
    carry into the next."""
    assert main(["order"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: gl2tors order" in captured.err
    assert main(["order", "--modulus", "6"]) == 0
    assert capsys.readouterr() == ("6\t288\n", "")
    assert main(["--format", "json", "sieve", "--max", "12"]) == 0
    assert json.loads(capsys.readouterr().out) == {"limit": 12, "primes": [7, 11]}
    assert main(["order", "--modulus", "5"]) == 0
    assert capsys.readouterr() == ("5\t480\n", "")
    assert _build_parser() is _build_parser()


# imports gl2tors, runs one call of each verb, and prints the exit codes and
# whether any sympy module was loaded
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
print(json.dumps({"codes": codes, "sympy": loaded}))
"""


def _run_script(script: str, *args: str) -> str:
    """Stdout of the script, run in a fresh interpreter that imports gl2tors from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return proc.stdout


def test_cli_never_loads_sympy(tmp_path):
    group, field = tmp_path / "g.json", tmp_path / "f.json"
    group.write_text(DELTA_U1_11)
    field.write_text(FIELD)
    stdout = _run_script(_NO_SYMPY_SCRIPT, str(group), str(field))
    assert json.loads(stdout) == {"codes": [0] * 7, "sympy": False}


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
    stdout = _run_script(_NO_NUMPY_MA_SCRIPT, harness)
    assert json.loads(stdout) == {"code": 0, "numpy.ma": False}
