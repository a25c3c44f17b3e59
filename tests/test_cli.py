import json
import subprocess
import sys

import pytest

from kfan.cli import run

P1_TUPLE_01 = '[[], [{"exp": [0], "coef": 1}]]'


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_exit_code_contract(tmp_path, capsys):
    # a false verdict is a computed result
    code, rep, _ = run_json(capsys, ["gkm-check", "p1", P1_TUPLE_01])
    assert code == 0
    assert rep["result"]["member"] is False
    # malformed element
    assert run(["gkm-check", "p1", '[[{"bad": 1}]]']) == 2
    capsys.readouterr()
    # unreadable file
    assert run(["cellular", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # a singular fan whose basis search has no box to search
    code, rep, _ = run_json(capsys, ["rank", "p112", "--box", "0"])
    assert code == 3
    assert rep["conclusive"] is False
    # crosscheck needs its parameter
    assert run(["crosscheck"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    # validation reports are dicts; the message must still be text
    (["complete", '{"rank":2,"rays":[[1,0],[0,1],[1,1]],"max_cones":[[0,1],[0,2]]}'],
     "overlapping_interiors"),
    (["crosscheck", "--hirzebruch", "-1"], "nonnegative"),
    (["bundle", '{"fiber":"p2","base":{"kind":"trivial","char_rank":1}}'],
     "character rank"),
    (["sr", "p2", "--degree", "-1"], "--degree"),
    (["crosscheck", "--hirzebruch", "1", "--box", "-1"], "--box"),
    (["basis", "p2", "--samples", "-1"], "--samples"),
    # JSON floats and booleans are not integers
    (["bundle", '{"fiber":"p2","base":{"kind":"trivial","char_rank":2.9}}'],
     "char_rank"),
    (["rank", '{"rank":true,"rays":[[1],[-1]],"max_cones":[[0],[1]]}'], "rank"),
    (["gkm-check", "p1", '[[{"exp":[0],"coef":true}],[{"exp":[0],"coef":1}]]'],
     "coefficient"),
    (["sr", "p112"], "smooth"),
    # the parabolic reflection s_0 moves the wall characters of p2
    (["bundle", '{"fiber":"p2","base":{"kind":"flag","cartan":[[2,-1],[-1,2]],'
                '"parabolic_set":[0]}}'], "parabolic reflections"),
], ids=["invalid-fan", "negative-twist", "fiber-rank-mismatch", "negative-degree",
        "negative-box", "negative-samples", "float-char-rank", "bool-rank", "bool-coef",
        "sr-singular", "flag-moves-wall-character"])
def test_malformed_input_exits_2_with_message(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_cellular_report(capsys):
    code, rep, err = run_json(capsys, ["cellular", "p112", "--v", "2,1"])
    assert code == 0
    assert rep["result"]["verdict"] is True
    assert sorted(rep["result"]["cell_dims"], reverse=True) == [2, 1, 0]
    assert len(rep["digest"]) == 64
    assert "cellular:" in err  # timing goes to stderr, not the report


def test_gkm_check_wall_witness(capsys):
    code, rep, _ = run_json(capsys, ["gkm-check", "p1", P1_TUPLE_01])
    assert code == 0
    fails = rep["result"]["failures"]
    assert len(fails) == 1
    assert fails[0]["character"] == [1]


def test_plp_check_matches_gkm(capsys):
    _, gkm, _ = run_json(capsys, ["gkm-check", "p1", P1_TUPLE_01])
    _, plp, _ = run_json(capsys, ["plp-check", "p1", P1_TUPLE_01])
    assert gkm["result"]["member"] == plp["result"]["member"] is False


def test_validate_and_complete(capsys):
    code, rep, _ = run_json(capsys, ["validate", "quadrant"])
    assert code == 0 and rep["result"]["valid"] is True
    code, rep, _ = run_json(capsys, ["complete", "quadrant"])
    assert code == 0 and rep["result"]["complete"] is False
    code, rep, _ = run_json(capsys, ["complete", "p1xp1"])
    assert rep["result"]["complete"] is True


def test_inline_fan_json(capsys):
    inline = json.dumps({"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]})
    code, rep, _ = run_json(capsys, ["rank", inline])
    assert code == 0
    assert rep["result"]["rank"] == 2


def test_rank_report(capsys):
    code, rep, _ = run_json(capsys, ["rank", "f1"])
    assert code == 0
    assert rep["result"]["rank"] == 4
    assert rep["result"]["conclusive"] is True


def test_rank_hirzebruch_3_is_four(capsys):
    code, rep, _ = run_json(capsys, ["rank", "hirzebruch:3"])
    assert code == 0
    assert rep["result"] == {"rank": 4, "conclusive": True, "reason": None}


def test_rank_of_an_incomplete_fan_exits_3(capsys):
    code, rep, _ = run_json(capsys, ["rank", "quadrant"])
    assert code == 3
    assert rep["conclusive"] is False
    assert rep["result"]["rank"] is None
    assert rep["result"]["reason"]


def test_basis_report(capsys):
    code, rep, _ = run_json(capsys, ["basis", "p2", "--seed", "3"])
    assert code == 0
    assert rep["result"]["built"] is True
    assert rep["result"]["generation"]["all_generated"] is True
    assert len(rep["result"]["elements"]) == 3


def test_sr_report(capsys):
    code, rep, _ = run_json(capsys, ["sr", "f1", "--samples", "10"])
    assert code == 0
    assert rep["result"]["n_generators"] == 4
    assert rep["result"]["all_images_zero"] is True
    assert rep["result"]["surjectivity"]["all_hit"] is True
    # singular fans have no monomial presentation
    assert run(["sr", "p112"]) == 2
    capsys.readouterr()


def test_bundle_report(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"fiber": "p1", "base": {"kind": "trivial", "char_rank": 1}}))
    code, rep, _ = run_json(capsys, ["bundle", str(spec), "--box", "2",
                                     "--samples", "5"])
    assert code == 0
    assert rep["result"]["rank"]["rank"] == 2
    assert rep["result"]["kunneth"]["all_hit"] is True
    assert rep["result"]["presentation"]["all_images_zero"] is True
    # membership check through --element
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps([[{"exp": [0], "coef": 1}],
                                [{"exp": [1], "coef": 1}]]))
    code, rep, _ = run_json(capsys, ["bundle", str(spec), "--box", "2",
                                     "--samples", "5", "--element", str(elem)])
    assert rep["result"]["check"]["member"] is True
    assert run(["bundle", '{"fiber": "p1"}']) == 2
    capsys.readouterr()


def test_horo_report(capsys):
    code, rep, _ = run_json(capsys, ["horo", "sl2"])
    assert code == 0
    assert rep["result"]["ok"] is True
    assert rep["result"]["rank"]["rank"] == 4
    assert rep["result"]["presentation"]["all_images_zero"] is True
    code, rep, _ = run_json(capsys, ["horo", "sl2", "--element",
                                     '[[{"exp": [0], "coef": 1}], [{"exp": [1], "coef": 1}]]'])
    assert rep["result"]["check"]["member"] is True
    # a datum failing validation is a verdict, not an input error
    bad = json.dumps({"cartan": [[2]], "parabolic_set": [],
                      "fan": {"rank": 1, "rays": [[1], [-1]],
                              "max_cones": [[0], [1]]},
                      "char_embedding": [[0]]})
    code, rep, _ = run_json(capsys, ["horo", bad])
    assert code == 0
    assert rep["result"]["ok"] is False


def test_crosscheck_report(capsys):
    code, rep, _ = run_json(capsys, ["crosscheck", "--hirzebruch", "1",
                                     "--samples", "20"])
    assert code == 0
    assert rep["result"]["all_agree"] is True
    assert rep["result"]["ranks_match"] is True
    assert rep["seed"] == 0


def test_crosscheck_with_mismatched_ranks_exits_3(capsys):
    # the extended box rank of F5 stabilizes at 3 against the certified 4
    code, rep, _ = run_json(capsys, ["crosscheck", "--hirzebruch", "5"])
    assert code == 3
    assert rep["conclusive"] is False
    result = rep["result"]
    assert (result["rank_direct"], result["rank_extended"], result["ranks_match"]) == (
        4, 3, False)


def test_human_format(capsys):
    code = run(["horo", "sl2", "--format", "human"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command:")
    assert "rank" in out


GOLDEN_COMMANDS = [
    ["cellular", "p112", "--v", "2,1"],
    ["gkm-check", "p1", P1_TUPLE_01],
    ["rank", "p1xp1"],
    ["sr", "f1", "--seed", "7", "--samples", "10"],
    ["basis", "p2", "--seed", "3"],
    ["crosscheck", "--hirzebruch", "1", "--samples", "20", "--seed", "5"],
    ["horo", "sl2"],
    ["bundle", '{"fiber": "p1", "base": {"kind": "trivial", "char_rank": 1}}',
     "--box", "2", "--samples", "5"],
]


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS,
                         ids=[a[0] for a in GOLDEN_COMMANDS])
def test_golden_byte_identity(argv):
    # separate processes so hash randomization differs between the two runs
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "kfan.cli"] + argv,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    json.loads(outs[0])  # stdout is exactly one JSON document
