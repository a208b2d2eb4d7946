"""End-to-end drives of the command line front end via main(argv)."""

import dataclasses
import io
import json
import sys

import pytest

from mopsrel import chebyshev_case
from mopsrel.cli import main
from conftest import rel_from7


@pytest.fixture(scope="module")
def cheb():
    return chebyshev_case(6)


@pytest.fixture(scope="module")
def combined_doc(cheb):
    return {"recurrence": cheb.u_rec.to_json(), "relation": cheb.rel.to_json()}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "coeffs, tag",
    [
        ((0, 0, 0, 0, 0, 0, 0), "Trivial11"),
        ((0, 2, 0, 1, 0, 2, 0), "Type12"),
        ((0, 0, 0, 0, 3, 1, 0), "Type13"),
        ((0, 1, 5, 1, 2, 2, 0), "Type21"),
        ((0, 0, 1, 1, 0, 1, 0), "Type22"),
        ((0, 0, 1, 0, 0, 1, 1), "NonDegenerate23"),
    ],
)
def test_classify_tags(tmp_path, capsys, coeffs, tag):
    rel = rel_from7(*coeffs)
    path = write_doc(tmp_path, "rel.json", {"relation": rel.to_json()})
    code, out, err = run(capsys, ["classify", path])
    assert code == 0
    assert json.loads(out)["tag"] == tag
    assert "# mopsrel classify depth=20 exit=0 time=" in err


def test_classify_accepts_bare_relation_document(tmp_path, capsys):
    rel = rel_from7(0, 0, 1, 0, 0, 1, 1)
    path = write_doc(tmp_path, "bare.json", rel.to_json())
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    assert json.loads(out)["tag"] == "NonDegenerate23"


def test_classify_reads_stdin(monkeypatch, capsys):
    rel = rel_from7(0, 0, 0, 0, 0, 0, 0)
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"relation": rel.to_json()}))
    )
    code, out, _ = run(capsys, ["classify"])
    assert code == 0
    assert json.loads(out)["tag"] == "Trivial11"


def test_convention_violation_is_input_error(tmp_path, capsys):
    doc = {"relation": {"r": ["0"], "s": ["0"], "t": ["0", "1"]}}
    path = write_doc(tmp_path, "bad.json", doc)
    code, _, err = run(capsys, ["classify", path])
    assert code == 2
    assert "convention r0=s0=t0=t1=0 violated" in err


def test_malformed_inputs(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["classify", str(path)])
    assert code == 2 and "not valid JSON" in err

    path2 = write_doc(tmp_path, "list.json", [1, 2])
    code, _, err = run(capsys, ["classify", path2])
    assert code == 2 and "JSON object" in err

    doc = {"relation": {"r": ["0", "1/0"], "s": ["0"], "t": ["0", "0"]}}
    path3 = write_doc(tmp_path, "badfrac.json", doc)
    code, _, err = run(capsys, ["classify", path3])
    assert code == 2

    code, _, err = run(capsys, ["classify", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err


# the interpreter's cap on decimal digits in an int conversion (0: no cap)
DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_CAP, reason="no int digit cap in this interpreter")
def test_oversized_integer_is_input_error(tmp_path, capsys):
    digits = "9" * max(5000, DIGIT_CAP + 1)
    doc = {"relation": {"r": ["0", "1"], "s": ["0", digits], "t": ["0", "0"]}}
    path = write_doc(tmp_path, "huge.json", doc)
    code, out, err = run(capsys, ["classify", path])
    assert code == 2 and out == ""
    assert f"rational string of {len(digits)} characters is too long" in err
    assert "Traceback" not in err


def test_source_count_validation(tmp_path, capsys, combined_doc):
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, _, err = run(capsys, ["classify", path, path])
    assert code == 2 and "expected one combined" in err
    code, _, err = run(capsys, ["inverse-check", path, path, path])
    assert code == 2


def test_depth_guard(tmp_path, capsys, combined_doc):
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, _, err = run(capsys, ["inverse-check", "--depth", "4", path])
    assert code == 2 and "--depth must be at least 5" in err


def test_inverse_check_positive(tmp_path, capsys, combined_doc):
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, out, err = run(capsys, ["inverse-check", "--depth", "6", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["is_mops"] is True
    assert payload["classification"]["tag"] == "NonDegenerate23"
    assert payload["functional_relation"] == {
        "lambda": "3/2", "c": "1", "a": "1", "b": "0",
    }
    assert payload["verdict_constants"]["constants"] == {
        "A": "1", "B": "0", "C": "1",
    }
    assert "exit=0" in err


def test_inverse_check_two_file_input(tmp_path, capsys, cheb, combined_doc):
    rec_path = write_doc(tmp_path, "rec.json", {"recurrence": cheb.u_rec.to_json()})
    rel_path = write_doc(tmp_path, "rel.json", {"relation": cheb.rel.to_json()})
    code, out_two, _ = run(capsys, ["inverse-check", "--depth", "6", rec_path, rel_path])
    assert code == 0
    combined_path = write_doc(tmp_path, "combined.json", combined_doc)
    code, out_one, _ = run(capsys, ["inverse-check", "--depth", "6", combined_path])
    assert code == 0
    assert out_two == out_one


def test_inverse_check_negative(tmp_path, capsys, cheb):
    t = list(cheb.rel.t)
    t[4] += 1
    doc = {
        "recurrence": cheb.u_rec.to_json(),
        "relation": {
            "r": [str(v) for v in cheb.rel.r],
            "s": [str(v) for v in cheb.rel.s],
            "t": [str(v) for v in t],
        },
    }
    path = write_doc(tmp_path, "broken.json", doc)
    code, out, err = run(capsys, ["inverse-check", "--depth", "6", path])
    assert code == 1
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["is_mops"] is False
    assert payload["verdict_equations"]["failures"]
    assert "functional_relation" not in payload
    assert "exit=1" in err


def test_inverse_check_rejects_degenerate_shape(tmp_path, capsys, cheb):
    rel = rel_from7(0, 2, 0, 1, 0, 2, 0, pad=5)  # Type12
    doc = {"recurrence": cheb.u_rec.to_json(), "relation": rel.to_json()}
    path = write_doc(tmp_path, "degenerate.json", doc)
    code, _, err = run(capsys, ["inverse-check", "--depth", "6", path])
    assert code == 2
    assert "classifies as Type12" in err
    assert "run the classify command" in err


def test_inverse_check_zero_gamma_is_input_error(tmp_path, capsys, cheb):
    doc = {
        "recurrence": {
            "beta": ["0"] * 9,
            "gamma": ["1", "1", "0", "1", "1", "1", "1", "1"],
        },
        "relation": cheb.rel.to_json(),
    }
    path = write_doc(tmp_path, "singular.json", doc)
    code, _, err = run(capsys, ["inverse-check", "--depth", "6", path])
    assert code == 2 and "gamma_3 is zero" in err


def test_internal_disagreement_is_exit_3(tmp_path, capsys, monkeypatch, combined_doc):
    from mopsrel import check_by_constants as real

    def flipped(rec, rel, depth):
        verdict = real(rec, rel, depth)
        return dataclasses.replace(verdict, is_mops=not verdict.is_mops)

    monkeypatch.setattr("mopsrel.cli.check_by_constants", flipped)
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, out, err = run(capsys, ["inverse-check", "--depth", "6", path])
    assert code == 3
    assert json.loads(out)["agree"] is False
    assert "checkers disagree" in err


def test_internal_constants_mismatch_is_exit_3(
    tmp_path, capsys, monkeypatch, combined_doc
):
    from mopsrel import check_by_constants as real

    def skewed(rec, rel, depth):
        verdict = real(rec, rel, depth)
        a, b, c = verdict.constants
        return dataclasses.replace(verdict, constants=(a + 1, b, c))

    monkeypatch.setattr("mopsrel.cli.check_by_constants", skewed)
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, _, err = run(capsys, ["inverse-check", "--depth", "6", path])
    assert code == 3 and "constants disagree" in err
    code, _, err = run(capsys, ["constants", "--depth", "6", path])
    assert code == 3 and "constants disagree" in err


def test_constants_subcommand(tmp_path, capsys, combined_doc):
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, out, _ = run(capsys, ["constants", "--depth", "6", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["functional_relation"]["lambda"] == "3/2"


def test_constants_float_mode(tmp_path, capsys, combined_doc):
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, out, _ = run(
        capsys, ["constants", "--depth", "6", "--mode", "float", path]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["functional_relation"]["lambda"] == 1.5


def test_example_chebyshev_deterministic(capsys):
    code, first, _ = run(capsys, ["example", "chebyshev", "--depth", "6"])
    assert code == 0
    code, second, _ = run(capsys, ["example", "chebyshev", "--depth", "6"])
    assert code == 0
    assert first == second
    payload = json.loads(first)
    assert payload["point_mass_ratio"] == "3/2"
    assert payload["functional_relation"]["lambda"] == "3/2"


def test_example_chebyshev_csv(capsys):
    code, out, _ = run(capsys, ["example", "chebyshev", "--depth", "6", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,a_n,b_n,lambda_n,r_n,s_n,t_n")
    assert len(lines) == 8


def test_example_chebyshev_csv_float(capsys):
    code, out, _ = run(
        capsys,
        ["example", "chebyshev", "--depth", "6", "--format", "csv", "--mode", "float"],
    )
    assert code == 0
    lines = out.splitlines()
    row1 = lines[2].split(",")
    assert row1[0] == "1"
    assert float(row1[1]) == -0.5


def test_example_jacobi_chain(capsys):
    code, out, _ = run(capsys, ["example", "jacobi-chain", "--depth", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["u_mass"] == "-1/3"
    assert payload["functional_relation"] == {
        "lambda": "1", "c": "1", "a": "2", "b": "1",
    }


def test_example_jacobi_inadmissible(capsys):
    code, out, err = run(capsys, ["example", "jacobi-chain", "--a1", "0", "--depth", "6"])
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "example: a1 must be nonzero" in err
    assert "exit=1" in err


def test_out_writes_file(tmp_path, capsys, combined_doc):
    path = write_doc(tmp_path, "combined.json", combined_doc)
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys, ["constants", "--depth", "6", "--out", str(target), path]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["functional_relation"]["c"] == "1"


def test_flattened_csv_output(tmp_path, capsys, combined_doc):
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, out, _ = run(
        capsys, ["constants", "--depth", "6", "--format", "csv", path]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "functional_relation.lambda,3/2" in lines
