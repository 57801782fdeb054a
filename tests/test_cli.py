import json
from pathlib import Path

import pytest

from cyclosum.cli import main


DATA = Path(__file__).parent / "data"

# the README's command line examples other than audit, whose report is
# guarded by sweep_default.json; each output is compared byte for byte
README_EXAMPLES = {
    "weights": "weights --p 11 --m 5 --certificate 3 --minimal-upto 3",
    "factor": "factor --p 7 --m 19",
    "bounds": "bounds --p 7 --m 19 --k 3",
    "trace": "trace --p 3 --m 11",
    "trace_prop65": "trace --prop65 --p 3 --q 11",
    "solve": "solve --q 512 --e 56 --n 3 --modulus 1,1,0,0,0,0,0,0,0,1",
}


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_matches_golden_output(capsys, name):
    code = main(README_EXAMPLES[name].split())
    assert code == 0
    assert capsys.readouterr().out == (DATA / f"cli_{name}.json").read_text()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_weights_command(capsys):
    code, data = run(capsys, "weights", "--p", "11", "--m", "5")
    assert code == 0
    assert data["tail_start"] == 3
    assert data["period"] == 1
    assert data["members_below"][:2] == [0, 3]
    assert data["field"]["p"] == 11
    assert data["field"]["generator_poly"] == [2]


def test_weights_with_certificate_and_minimal(capsys):
    code, data = run(
        capsys, "weights", "--p", "11", "--m", "5",
        "--certificate", "3", "--minimal-upto", "3",
    )
    assert code == 0
    assert data["certificate"] == {"n": 3, "exponents": [0, 0, 3]}
    assert data["minimal_sums"] == [[0, 0, 3]]


def test_factor_command(capsys):
    code, data = run(capsys, "factor", "--p", "3", "--m", "11")
    assert code == 0
    coeff_sets = {tuple(f["coeffs"]) for f in data["factors"]}
    assert (2, 0, 1, 2, 1, 1) in coeff_sets
    assert data["display"].startswith("(X + 2)")
    assert data["field"]["k"] == 5


def test_bounds_command(capsys):
    code, data = run(capsys, "bounds", "--p", "7", "--m", "19", "--k", "3")
    assert code == 0
    assert data["case"] == "EQ_1"
    assert data["best"] == 6
    assert {"theorem": "trace_sumset", "tail": 6} in data["predictions"]


def test_bounds_defaults_to_minimal_degree(capsys):
    code, data = run(capsys, "bounds", "--p", "13", "--m", "4")
    assert code == 0
    assert data["k"] == 1
    assert data["best"] == 4


def test_trace_command(capsys):
    code, data = run(capsys, "trace", "--p", "7", "--m", "19")
    assert code == 0
    assert data["T"] == [0, 1, 2, 3, 4]
    assert data["t"] == 5
    assert data["ell"] == 3
    assert data["m_prime"] == 19


def test_trace_prediction_mode(capsys):
    code, data = run(capsys, "trace", "--prop65", "--p", "5", "--q", "11")
    assert code == 0
    assert data == {
        "p": 5, "q": 11, "q_star": -11,
        "predicted_t": 3, "actual_t": 3, "agrees": True,
    }


def test_solve_command(capsys):
    code, data = run(capsys, "solve", "--q", "11", "--e", "2", "--n", "3")
    assert code == 0
    assert data["status"] == "solved"
    assert data["d"] == 2 and data["m"] == 5
    assert len(data["solution"]) == 3


def test_solve_reports_no_solution(capsys):
    code, data = run(capsys, "solve", "--q", "5", "--e", "2", "--n", "3")
    assert code == 0
    assert data["status"] == "no_solution"
    assert data["evidence"]["tail_start"] == 4


def test_solve_with_modulus_override(capsys):
    code, data = run(
        capsys, "solve", "--q", "512", "--e", "7", "--n", "3",
        "--modulus", "1,1,0,0,0,0,0,0,0,1",
    )
    assert code == 0
    assert data["field"]["modulus_coeffs"] == [1, 1, 0, 0, 0, 0, 0, 0, 0, 1]
    assert data["status"] == "solved"


def test_error_exit_code(capsys):
    code = main(["weights", "--p", "4", "--m", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not prime" in err


def test_negative_cap_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--p", "5", "--m", "3", "--cap", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--cap" in err and "Traceback" not in err


def test_cap_above_the_ceiling_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--p", "5", "--m", "3", "--cap", "25"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--cap" in err and "Traceback" not in err


def test_malformed_modulus_is_an_input_error(capsys):
    code = main(["solve", "--q", "9", "--e", "2", "--n", "3", "--modulus", "1,x"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--modulus" in err and "Traceback" not in err


def test_audit_command(capsys, tmp_path):
    jpath = tmp_path / "audit.json"
    code = main([
        "audit", "--p-max", "3", "--m-max", "10",
        "--cap", "12", "--quiet", "--json", str(jpath),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "no failures" in out
    report = json.loads(jpath.read_text())
    assert report["counters"]["checks_failed"] == 0
