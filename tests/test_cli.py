import json

import pytest

from gl2tors.cli import main

DELTA_U1_11 = '{"modulus": 11, "generators": [[[4,0],[0,4]],[[1,0],[0,10]],[[1,1],[0,1]]]}'
FIELD = '{"label": "ex", "merel_constant": 210, "lv14_bound": 13, "pdi2_primes": [7,11,23]}'


def test_sieve_text(capsys):
    assert main(["sieve", "--max", "100"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["7", "11", "23", "31", "43", "47", "59", "67", "71", "79", "83"]


def test_sieve_json(capsys):
    assert main(["--format", "json", "sieve", "--max", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"limit": 12, "primes": [7, 11]}


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


def test_spectrum_non_integer_entry_exit_2(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"modulus": 5, "generators": [[[1.0, 1], [0, 1]]]}')
    assert main(["spectrum", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed subgroup input")


def test_bound_json(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(FIELD)
    assert main(["--format", "json", "bound", "--input", str(path), "--degree", "17"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_k"] == 13
    assert payload["preservation"]["preserved"] is True


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


@pytest.mark.parametrize("witness", ["a,b", "1", "1,2,3", ""])
def test_classify_bad_witness_exit_1(witness, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(DELTA_U1_11)
    assert main(["classify", "--input", str(path), "--witness", witness]) == 1
    err = capsys.readouterr().err
    assert err == "error: witness must be two integers c,d\n"


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
