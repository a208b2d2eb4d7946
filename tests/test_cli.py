"""End-to-end drives of the command line front end via main(argv)."""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mopsrel import (
    ContractError,
    DepthError,
    DomainError,
    Failure,
    FormatError,
    JacobiParams,
    RecurrencePair,
    Relation23,
    chebyshev_case,
    jacobi_chain,
)
from mopsrel.cli import (
    COMMANDS,
    EXACT_CELL,
    EXACT_JSON,
    EXAMPLE_MAX_DEPTH,
    FLOAT_CELL,
    FLOAT_JSON,
    _build_parser,
    _csv_text,
    _exact_json,
    _float_cell,
    _float_text,
    _json_text,
    main,
)
from mopsrel.rational import RATIONAL_PATTERN, format_rational
from conftest import random_gated_instance, rel_from7


@pytest.fixture(scope="module")
def cheb():
    return chebyshev_case(6)


@pytest.fixture(scope="module")
def combined_doc(cheb):
    return {"recurrence": cheb.u_rec.to_json(), "relation": cheb.rel.to_json()}


@pytest.fixture(scope="module")
def negative_doc():
    """A seeded random gated document at depth 60 whose verdict is
    negative: long failure lists in every checker payload."""
    rec, rel = random_gated_instance(random.Random(20260818), 60)
    return {"recurrence": rec.to_json(), "relation": rel.to_json()}


@pytest.fixture(scope="module")
def generic_doc():
    """The positive document of the generic Jacobi chain at depth 20, whose
    coefficients run to hundreds of bits."""
    rep = jacobi_chain(JacobiParams(Fraction(1, 3), Fraction(2, 7)), 3, -5, 20)
    return {"recurrence": rep.u_rec.to_json(), "relation": rep.rel.to_json()}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    # default=str spells the Fraction leaves of to_json() as "p" or "p/q"
    path.write_text(json.dumps(doc, default=str), encoding="utf-8")
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


def test_classify_type22_with_s1_equal_r1(tmp_path, capsys):
    """The Type22 shape with s_1 = r_1 reports no reduced coefficient below
    index 3: null in JSON, an empty cell in CSV."""
    rel = Relation23([0, 1, 1, 2, 4], [0, 1, 5, 3, 6], [0, 0, 7, 0, 1])
    path = write_doc(tmp_path, "rel.json", {"relation": rel.to_json()})
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    assert json.loads(out) == {
        "tag": "Type22",
        "reduced": {"c": [None, None, None, "2", "4"], "d": [None, None, None, "3", "6"]},
    }
    code, out, _ = run(capsys, ["classify", "--format", "csv", path])
    assert code == 0
    rows = ["key,value", "tag,Type22"]
    for key, tail in (("c", ("2", "4")), ("d", ("3", "6"))):
        rows += [f"reduced.{key}[{i}]," for i in range(3)]
        rows += [f"reduced.{key}[{i}],{value}" for i, value in enumerate(tail, 3)]
    assert out == "\n".join(rows) + "\n"


def test_classify_reads_stdin(monkeypatch, capsys):
    rel = rel_from7(0, 0, 0, 0, 0, 0, 0)
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"relation": rel.to_json()}, default=str))
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


# a UTF-16 document with its byte-order mark: ff fe opens no UTF-8 text
UTF16_DOC = b"\xff\xfe" + '{"relation": {"r": [], "s": [], "t": []}}'.encode("utf-16-le")


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(UTF16_DOC)
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert f"mopsrel: {path} is not UTF-8 text: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "inverse-check", "constants"])
def test_non_utf8_stdin_is_input_error(monkeypatch, capsys, command):
    # a strict UTF-8 reader over the bytes, as stdin is under
    # PYTHONIOENCODING=utf-8:strict: its read() raises UnicodeDecodeError
    monkeypatch.setattr(
        "sys.stdin", io.TextIOWrapper(io.BytesIO(UTF16_DOC), encoding="utf-8", errors="strict")
    )
    code, out, err = run(capsys, [command, "--depth", "6", "-"])
    assert code == 2 and out == ""
    assert "mopsrel: stdin is not UTF-8 text" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize(
    "command, doc, condition",
    [
        ("inverse-check", {"recurrence": {"beta": 5, "gamma": ["1"]}},
         '"beta" must be a JSON list, not 5'),
        ("classify", {"relation": {"r": None, "s": ["0"], "t": ["0"]}},
         '"r" must be a JSON list, not None'),
        # a string would be read as its digits 1, 2, ..., 7
        ("inverse-check", {"recurrence": {"beta": "1234567", "gamma": ["1"] * 7}},
         "\"beta\" must be a JSON list, not '1234567'"),
        ("classify", {"relation": {"r": [0, 1, 0, 1], "s": [0, True, 0, 0],
                                   "t": [0, 0, 1, 1]}},
         "cannot interpret True as an exact rational"),
        ("classify", {"relation": {"r": ["0", "1", "0", "1"], "s": ["0", "3\n", "0", "0"],
                                   "t": ["0", "0", "1", "1"]}},
         "not a rational string of the form p or p/q: '3\\n'"),
    ],
    ids=["beta-number", "r-null", "beta-string", "bool-coefficient", "newline-rational"],
)
def test_malformed_document_is_input_error(tmp_path, capsys, cheb, command, doc, condition):
    doc = dict(doc)
    doc.setdefault("recurrence", cheb.u_rec.to_json())
    doc.setdefault("relation", cheb.rel.to_json())
    path = write_doc(tmp_path, "malformed.json", doc)
    code, out, err = run(capsys, [command, "--depth", "6", path])
    assert code == 2 and out == ""
    assert condition in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, condition",
    [
        pytest.param(
            '{"relation": {"r": [0, ' + "7" * max(5000, DIGIT_CAP + 1) + "]}}", "digits",
            marks=pytest.mark.skipif(not DIGIT_CAP, reason="no int digit cap"),
        ),
        ("[" * 100000 + "]" * 100000, "maximum recursion depth"),
    ],
    ids=["long-integer-literal", "deep-nesting"],
)
def test_interpreter_limits_are_input_errors(tmp_path, capsys, text, condition):
    path = tmp_path / "limit.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert "input exceeds an interpreter limit" in err and condition in err
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


@pytest.mark.parametrize("command", ["inverse-check", "constants"])
@pytest.mark.parametrize("zero, refused", [(6, True), (7, False)])
def test_zero_gamma_is_refused_through_depth_only(tmp_path, capsys, combined_doc, command, zero, refused):
    """At depth 6 the checkers read gamma_1..gamma_6: a zero gamma_6 exits 2,
    a zero gamma_7 is outside the window and the depth-6 verdict stands."""
    doc = json.loads(json.dumps(combined_doc, default=str))
    doc["recurrence"]["gamma"][zero - 1] = "0"
    path = write_doc(tmp_path, "zero.json", doc)
    code, out, err = run(capsys, [command, "--depth", "6", path])
    if refused:
        assert code == 2 and f"gamma_{zero} is zero" in err and out == ""
    else:
        assert code == 0 and "is zero" not in err


@pytest.mark.parametrize(
    "section, key, index, condition",
    [
        ("relation", "t", 2, "classifies as Type12"),  # t_2 = r_2 (s_1 - r_1)
        ("relation", "r", 3, "classifies as Type13"),
        ("relation", "t", 3, "classifies as Type2"),
        ("relation", "r", 5, "r_5 = 0"),
        ("recurrence", "gamma", 2, "gamma_3 is zero"),
    ],
    ids=["type12-gate", "r_3-zero", "t_3-zero", "r_5-zero", "gamma_3-zero"],
)
def test_constants_refuses_what_inverse_check_refuses(
    tmp_path, capsys, combined_doc, section, key, index, condition
):
    """``constants`` admits data as ``inverse-check`` does: on the depth-6
    Chebyshev document bent into a refusal, both exit 2 with one and the
    same ``mopsrel:`` line and write no payload."""
    doc = json.loads(json.dumps(combined_doc, default=str))
    r, s = ([Fraction(v) for v in doc["relation"][k]] for k in "rs")
    doc[section][key][index] = str(r[2] * (s[1] - r[1])) if "Type12" in condition else "0"
    path = write_doc(tmp_path, "bent.json", doc)
    lines = []
    for command in ("inverse-check", "constants"):
        code, out, err = run(capsys, [command, "--depth", "6", path])
        assert code == 2 and out == ""
        lines.append([line for line in err.splitlines() if line.startswith("mopsrel:")])
    assert len(lines[0]) == 1 and condition in lines[0][0]
    assert lines[1] == lines[0]


@pytest.mark.parametrize("depth", [5, 8, 9])
def test_constants_answers_a_negative_verdict_without_closed_forms(tmp_path, capsys, depth):
    """The depth-8 Chebyshev document with r_2 = 0 has gamma~_2 = 0, which
    the closed forms divide by: ``constants`` exits 1 with the constancy
    checker's negative verdict and a null functional relation, as
    ``inverse-check`` exits 1 with its negative verdicts."""
    rep = chebyshev_case(8)
    rel = rep.rel.to_json()
    rel["r"][2] = 0
    path = write_doc(tmp_path, "r2.json", {"recurrence": rep.u_rec.to_json(), "relation": rel})
    code, out, err = run(capsys, ["inverse-check", "--depth", str(depth), path])
    checked = json.loads(out)
    assert code == 1 and checked["is_mops"] is False and "mopsrel:" not in err
    code, out, err = run(capsys, ["constants", "--depth", str(depth), path])
    payload = json.loads(out)
    assert code == 1 and "mopsrel:" not in err
    assert payload["functional_relation"] is None and "agree" not in payload
    assert payload["verdict_constants"] == checked["verdict_constants"]
    assert {"condition": "gamma_tilde", "n": 2} in payload["verdict_constants"]["failures"]


@pytest.mark.parametrize(
    "command, big_beta",
    [("constants", False), ("inverse-check", True)],
)
def test_oversized_output_is_input_error(tmp_path, capsys, combined_doc, command, big_beta):
    """3000-digit recurrence entries pass the input limit, but a payload
    value built from them exceeds the interpreter's 4300-digit limit on
    printing an int: exit 2 naming the digit count, no traceback."""
    big = 10**2999
    rec = dict(combined_doc["recurrence"])
    rec["gamma"] = [f"{big + 7 * n + 1}/{big + 3 * n + 2}" for n in range(len(rec["gamma"]))]
    if big_beta:
        rec["beta"] = [f"{big + 5 * n + 1}/{big + 11 * n + 4}" for n in range(len(rec["beta"]))]
    doc = {"recurrence": rec, "relation": combined_doc["relation"]}
    path = write_doc(tmp_path, "huge.json", doc)
    code, out, err = run(capsys, [command, "--depth", "5", path])
    assert code == 2
    assert out == ""
    assert "decimal digits is too long to print" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_float_overflow_is_input_error(tmp_path, capsys, combined_doc, fmt):
    """beta_0 = 10^400 gives constants beyond the float range: the exact
    payload is written, the float one exits 2 before a byte reaches stdout."""
    rec = dict(combined_doc["recurrence"])
    rec["beta"] = [str(10**400)] + rec["beta"][1:]
    path = write_doc(tmp_path, "beyond.json", {"recurrence": rec,
                                               "relation": combined_doc["relation"]})
    argv = ["constants", "--depth", "6", "--format", fmt, path]
    code, out, _ = run(capsys, argv)
    assert code == 1 and out
    # the first value in payload order past the float range, and its digits
    for text in re.findall(r"-?[0-9]+(?:/[0-9]+)?", out):
        try:
            float(Fraction(text))
        except OverflowError:
            digits = max(len(part.lstrip("-")) for part in text.split("/"))
            break
    code, out, err = run(capsys, argv + ["--mode", "float"])
    assert code == 2 and out == ""
    assert f"a rational with {digits} decimal digits is beyond the float range" in err
    assert "Traceback" not in err


def test_unwritable_out_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["example", "chebyshev", "--depth", "6", "--out", str(target)])
    assert code == 2 and out == ""
    assert f"cannot write {target}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["chebyshev", "jacobi-chain"])
def test_example_depth_maximum(capsys, monkeypatch, case):
    """A depth past the maximum is refused before any work starts; the
    maximum itself reaches the case builder (here a stand-in that stops)."""
    def stand_in(*args):
        raise DepthError(f"builder called with depth {args[-1]}")

    monkeypatch.setattr("mopsrel.cli.chebyshev_case", stand_in)
    monkeypatch.setattr("mopsrel.cli.jacobi_chain", stand_in)
    for depth in (EXAMPLE_MAX_DEPTH + 1, 10**20):
        code, out, err = run(capsys, ["example", case, "--depth", str(depth)])
        assert code == 2 and out == ""
        assert f"--depth of example must be at most {EXAMPLE_MAX_DEPTH}" in err
        assert "builder called" not in err and "Traceback" not in err
    code, _, err = run(capsys, ["example", case, "--depth", str(EXAMPLE_MAX_DEPTH)])
    assert code == 2 and f"builder called with depth {EXAMPLE_MAX_DEPTH}" in err


@pytest.mark.parametrize(
    "target, argv",
    [
        ("mopsrel.cli.chebyshev_case", ["example", "chebyshev", "--depth", "6"]),
        ("mopsrel.cli.check_both", ["inverse-check", "--depth", "6", "DOC"]),
        ("mopsrel.cli.relation_constants", ["constants", "--depth", "6", "DOC"]),
    ],
    ids=["example", "inverse-check", "constants"],
)
def test_unexpected_exception_is_exit_3(tmp_path, capsys, monkeypatch, combined_doc, target, argv):
    """An exception no command expects ends in exit 3 and one line naming
    it, with no traceback and no payload (here a stand-in that raises)."""
    def stand_in(*args):
        raise RuntimeError("stand-in failure")

    monkeypatch.setattr(target, stand_in)
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, out, err = run(capsys, [path if a == "DOC" else a for a in argv])
    assert code == 3 and out == ""
    assert "mopsrel: internal error: RuntimeError: stand-in failure" in err
    assert "Traceback" not in err and "exit=3" in err


@pytest.mark.parametrize(
    "kind, code",
    [(FormatError, 2), (DepthError, 2), (DomainError, 2), (ContractError, 3), (RuntimeError, 3)],
)
@pytest.mark.parametrize(
    "target, argv",
    [
        ("mopsrel.cli.classify", ["classify", "DOC"]),
        ("mopsrel.cli.check_both", ["inverse-check", "--depth", "6", "DOC"]),
        ("mopsrel.cli.check_by_constants", ["constants", "--depth", "6", "DOC"]),
        ("mopsrel.cli.chebyshev_case", ["example", "chebyshev", "--depth", "6"]),
    ],
    ids=["classify", "inverse-check", "constants", "example"],
)
def test_exit_code_is_decided_by_the_exception_type(
    tmp_path, capsys, monkeypatch, combined_doc, target, argv, kind, code
):
    """Whichever command raises it, an exception's type alone decides the
    exit code: input refusals exit 2, an internal inconsistency or any other
    exception exits 3; each run writes no payload and one ``mopsrel:`` line."""
    def stand_in(*args):
        raise kind("stand-in refusal")

    monkeypatch.setattr(target, stand_in)
    path = write_doc(tmp_path, "combined.json", combined_doc)
    got, out, err = run(capsys, [path if a == "DOC" else a for a in argv])
    assert got == code and out == ""
    lines = [line for line in err.splitlines() if line.startswith("mopsrel:")]
    prefix = "mopsrel: internal error: RuntimeError: " if kind is RuntimeError else "mopsrel: "
    assert lines == [prefix + "stand-in refusal"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_example_builds_the_constancy_data_once(capsys, monkeypatch, fmt):
    """The two checkers share one prelude, and the CSV rows reuse the A_n,
    B_n, C_n of the constancy checker: a run builds the derived sequences
    once for the checkers, through the depth, and once, through index 2,
    for the closed-form constants, in either format."""
    import mopsrel.relation23 as relation23

    calls = []
    real = relation23._sequences

    def counted(rec, rel, upto):
        calls.append(upto)
        return real(rec, rel, upto)

    monkeypatch.setattr(relation23, "_sequences", counted)
    code, _, _ = run(capsys, ["example", "chebyshev", "--depth", "20", "--format", fmt])
    assert code == 0
    assert calls == [20, 2]


@pytest.mark.parametrize(
    "section, key, index, value, depth",
    [
        ("relation", "s", 7, "1000", 5),
        ("recurrence", "gamma", 5, "7", 5),  # gamma_6
        ("recurrence", "beta", 7, "7", 6),
    ],
    ids=["s_7-depth-5", "gamma_6-depth-5", "beta_7-depth-6"],
)
def test_checkers_agree_past_the_equations_window(
    tmp_path, capsys, combined_doc, section, key, index, value, depth
):
    """Well-formed data that differ from the depth-6 Chebyshev document only
    past the entries the equation checker reads: the constancy checker
    reads no further, so the verdicts agree."""
    doc = json.loads(json.dumps(combined_doc, default=str))
    doc[section][key][index] = value
    path = write_doc(tmp_path, "edited.json", doc)
    code, _, _ = run(capsys, ["inverse-check", path, "--depth", str(depth)])
    assert code != 3


@pytest.mark.parametrize(
    "build",
    [lambda: chebyshev_case(8), lambda: jacobi_chain(JacobiParams("1/3", "2/7"), 3, -5, 8)],
    ids=["chebyshev", "jacobi-generic"],
)
def test_inverse_check_reads_the_relation_through_depth_plus_1(tmp_path, capsys, build):
    """A worked case at depth 8 carries its relation through index 10 and
    its recurrence through index 9: ``--depth 9`` is answered, ``--depth 10``
    asks for the relation through index 11 and exits 2."""
    rep = build()
    path = write_doc(
        tmp_path, "doc.json", {"recurrence": rep.u_rec.to_json(), "relation": rep.rel.to_json()}
    )
    code, out, _ = run(capsys, ["inverse-check", "--depth", "9", path])
    assert code == 0 and json.loads(out)["is_mops"] is True
    code, out, err = run(capsys, ["inverse-check", "--depth", "10", path])
    assert code == 2 and out == ""
    assert "relation coefficients required through index 11" in err


@pytest.mark.parametrize("case", ["chebyshev", "jacobi-chain"])
def test_example_internal_inconsistency_is_exit_3(monkeypatch, capsys, case):
    """A worked case whose certificate fails is exit 3 with nothing on
    stdout and one line naming the failed identity on stderr."""
    from mopsrel import casebook

    real = casebook.compose_ladders

    def bent(*ladders):
        rel = real(*ladders)
        s = list(rel.s)
        s[4] += 1
        return Relation23(rel.r, s, rel.t)

    monkeypatch.setattr(casebook, "compose_ladders", bent)
    code, out, err = run(capsys, ["example", case, "--depth", "6"])
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("mopsrel: ")] == [
        "mopsrel: internal consistency: 2-3 relation fails as a polynomial identity at n=4"]
    assert len(lines) == 2 and lines[1].startswith("# mopsrel example depth=6 exit=3 time=")


def test_internal_disagreement_is_exit_3(tmp_path, capsys, monkeypatch, combined_doc):
    from mopsrel import check_both as real

    def flipped(rec, rel, depth):
        case, verdict_eq, verdict_ct = real(rec, rel, depth)
        return case, verdict_eq, dataclasses.replace(verdict_ct, is_mops=not verdict_ct.is_mops)

    monkeypatch.setattr("mopsrel.cli.check_both", flipped)
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, out, err = run(capsys, ["inverse-check", "--depth", "6", path])
    assert code == 3
    assert json.loads(out)["agree"] is False
    assert "checkers disagree" in err


def test_internal_constants_mismatch_is_exit_3(
    tmp_path, capsys, monkeypatch, combined_doc
):
    from mopsrel import check_both, check_by_constants

    def skew(verdict):
        a, b, c = verdict.constants
        return dataclasses.replace(verdict, constants=(a + 1, b, c))

    def skewed_both(rec, rel, depth):
        case, verdict_eq, verdict_ct = check_both(rec, rel, depth)
        return case, verdict_eq, skew(verdict_ct)

    def skewed(rec, rel, depth):
        return skew(check_by_constants(rec, rel, depth))

    monkeypatch.setattr("mopsrel.cli.check_both", skewed_both)
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


def run_exit(capsys, argv):
    """Like run, but an argparse refusal (SystemExit) counts as its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "option, value",
    [("--a1", "-1/4"), ("--c1", "-1/3"), ("--alpha", "-1/2"), ("--beta", "-1/3")],
)
def test_negative_fraction_option_value(capsys, option, value):
    base = ["example", "jacobi-chain", "--depth", "6"]
    joined = run_exit(capsys, base + [f"{option}={value}"])
    spaced = run_exit(capsys, base + [option, value])
    assert spaced == joined
    assert joined[0] in (0, 1) and joined[1]


COMBINED = "COMBINED"  # placeholder for the combined document's path
NEGATIVE = "NEGATIVE"  # placeholder for the negative document's path
GENERIC = "GENERIC"  # placeholder for the generic Jacobi document's path
JACOBI_SETS = {
    "half": ["--alpha=1/2", "--beta=1/2", "--a1=2", "--c1=-2"],
    "generic": ["--alpha=1/3", "--beta=2/7", "--a1=3", "--c1=-5"],
    "inadmissible": ["--alpha=1/2", "--beta=1/2", "--a1=2", "--c1=2"],
}
CSV = ["--format", "csv"]
FLOAT = ["--mode", "float"]
# sha256 of stdout, recorded before the ladder composition and the checker
# prelude were factored out (the NEGATIVE runs: before the JSON writer and
# the rational parser were replaced); any change to a payload byte fails here.
# The casebook CSV and NEGATIVE depth-60 inverse-check and constants pins were
# re-recorded when both checkers took one window: A_n and B_n are decided for
# n <= depth - 1, so the last CSV row's A_n and B_n cells are empty and the
# NEGATIVE constancy failures lose (A_constant, 60) and (B_constant, 60)
GOLDEN = [
    (["example", "chebyshev", "--depth", "6"], 0,
     "ee5a13f613f6868f04a2184632803f6e35d9870e22cd1a6efd89bcf5ce60eb4a"),
    (["example", "chebyshev", "--depth", "6"] + CSV, 0,
     "b46d2e8eae98d81b7f1aa4df49bfc7f33237fc7d7bb0be219da6feb1de612638"),
    (["example", "chebyshev", "--depth", "6"] + FLOAT, 0,
     "008828d9e5755e2722c3717001c3104d407946d7f2a54c9368d87f48ce2c5abf"),
    (["example", "chebyshev", "--depth", "6"] + CSV + FLOAT, 0,
     "78fba7515533f04cfa7b55738f7ff9e0ad523772eae8cfd712ca27b103475d68"),
    (["example", "chebyshev", "--depth", "12"], 0,
     "9ce16791e8f02b302413499c1da9a984a837e1aa6129263901de42810cd481c0"),
    (["example", "chebyshev", "--depth", "12"] + CSV, 0,
     "44736eb30a712ec5c6e97a9c221d8e12a76d74e8e161a78e93b57ec283c7c651"),
    (["example", "chebyshev", "--depth", "12"] + FLOAT, 0,
     "ee0f9ca0242d011bdc85eeb4278f956c393decdcd31e3ff562ce841fdd9ae924"),
    (["example", "chebyshev", "--depth", "12"] + CSV + FLOAT, 0,
     "6cbc6574271876e458fac339cb8e0ae77f6089369b50a686d0e2a00f8efa31d3"),
    (["example", "jacobi-chain", "--depth", "10"] + JACOBI_SETS["half"], 0,
     "fde1c1f5f87d164c3ebea190f905d5097f3eec4c0decba779b2784dd66ae0435"),
    (["example", "jacobi-chain", "--depth", "10"] + JACOBI_SETS["half"] + CSV, 0,
     "fc2f57a754342178262340e202042b12b8bc4fc9c0d9471f943d7100c91db975"),
    (["example", "jacobi-chain", "--depth", "10"] + JACOBI_SETS["generic"], 0,
     "48c7e3cafd1a2ee922e27aaca9c6ef30c91f76d52918f25a7cace825803266da"),
    (["example", "jacobi-chain", "--depth", "10"] + JACOBI_SETS["generic"] + CSV, 0,
     "326263c7fc6bcab55921709a84d07faa1b204cb0c9e9f6afac4c2d04a9684bd6"),
    # recorded before the chain's norm link became a Favard product and its
    # moment window was cut to what it reads: depth 5 has the tightest
    # window, depth 60 the largest quadratic-form share
    (["example", "jacobi-chain", "--depth", "5"] + JACOBI_SETS["generic"], 0,
     "27fed865a28102cf703691b67644eb08c0984122a03fe2abb514099cf6cfdb82"),
    (["example", "jacobi-chain", "--depth", "5"] + JACOBI_SETS["generic"] + CSV, 0,
     "89a27804bfb077131b16fc4ee9ad366458d6d1e0d06ada971993becd47674f7e"),
    (["example", "jacobi-chain", "--depth", "60"] + JACOBI_SETS["generic"], 0,
     "23e59e662112e9b57605a4edaf9ff6c3e15ce614ce5c74ef477db93902dab683"),
    (["example", "jacobi-chain", "--depth", "60"] + JACOBI_SETS["generic"] + CSV, 0,
     "bb47081efdeedb31a1b77c7748eafa1d4d07d06375d45bc8f889184999ce8f26"),
    (["example", "jacobi-chain", "--depth", "10"] + JACOBI_SETS["inadmissible"], 1,
     "4bf1376fa86f092652134820442a3fe65b97e3c6ec01a6fa4c4e67d24d191fb9"),
    (["example", "jacobi-chain", "--depth", "10"] + JACOBI_SETS["inadmissible"] + CSV, 1,
     "a3203bcdd00e5aaabce375d7554520a02423c2af0111321cbff59a393d953f99"),
    (["classify", COMBINED], 0,
     "617713a43370bd900e1d42c003de04da421bc7ed1c23fb1b61c50f80b4e9168d"),
    (["classify"] + CSV + [COMBINED], 0,
     "7aecfd0d67d17131ba6db697dfd302449bded5c4ab7c155e1953acce8e539817"),
    (["inverse-check", "--depth", "6", COMBINED], 0,
     "24d565e08fb63f1218667e8ba73fa2d7d6394ca1652001e7c9b356dceceb5d86"),
    (["inverse-check", "--depth", "6"] + CSV + [COMBINED], 0,
     "4264f02b1ac66bc7a6e577e24276355a456cafcae316fef6969505e6406e4853"),
    (["constants", "--depth", "6", COMBINED], 0,
     "677ebcdc854cbc3235c26a4d4e08f1fa5b7ca5e2d75762b499eb0512cd11ca3e"),
    (["constants", "--depth", "6"] + CSV + [COMBINED], 0,
     "bbd208a118863c1e5ec01ed8267cf113e6a0a21c95fdc83b6ceb795d56dde1a5"),
    (["classify", NEGATIVE], 0,
     "617713a43370bd900e1d42c003de04da421bc7ed1c23fb1b61c50f80b4e9168d"),
    (["classify"] + CSV + [NEGATIVE], 0,
     "7aecfd0d67d17131ba6db697dfd302449bded5c4ab7c155e1953acce8e539817"),
    (["classify"] + FLOAT + [NEGATIVE], 0,
     "617713a43370bd900e1d42c003de04da421bc7ed1c23fb1b61c50f80b4e9168d"),
    (["inverse-check", "--depth", "60", NEGATIVE], 1,
     "cba4479d8bfe3dc8a535c265cd8cdcf693d3bc902f490f1be994b354e4a31143"),
    (["inverse-check", "--depth", "60"] + CSV + [NEGATIVE], 1,
     "705df33d04adc4dfd50a1209f36c7bed3315e14747c31b4178419e864f206092"),
    (["inverse-check", "--depth", "60"] + FLOAT + [NEGATIVE], 1,
     "557357a01951b8c26fbf3c91e02f435b5e6bce5263fc2228a7fed3cc8b573c49"),
    (["constants", "--depth", "60", NEGATIVE], 1,
     "5a0fa1e79e137faf0e7bf49b637f0ce6069318a4340c03facf7f63960b5021ec"),
    (["constants", "--depth", "60"] + CSV + [NEGATIVE], 1,
     "36ad3d71eecfe88b57269808b790ec997dffaedb6ca0f924b4e4e078e560f9aa"),
    (["constants", "--depth", "60"] + FLOAT + [NEGATIVE], 1,
     "3ff913c1ede606e85995f87222a62068b125af15ff7dae4497e8a51175f6dde7"),
    # recorded before the checkers kept their compared values as integer pairs
    (["inverse-check", "--depth", "20", GENERIC], 0,
     "bee0a87bc5e98ef98e69965e503fed8eebd88199938dc6aa01f400cdef71db89"),
    (["inverse-check", "--depth", "20"] + CSV + [GENERIC], 0,
     "e945a0819c423fe37cd9efbffbbcfebb0dfd12b6b082659e61a0c9f485b8a0d0"),
    (["constants", "--depth", "20", GENERIC], 0,
     "50a3b18ff14e84e069bbc7a92559cce08863baca9c9ff4e91127f23d8c7f452d"),
    (["constants", "--depth", "20"] + CSV + [GENERIC], 0,
     "ab2ba9f86533e2a6828d82c115624c2528e0c5aa2a90f99616cd06e3a2169bc9"),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN, ids=[" ".join(case[0]) for case in GOLDEN]
)
def test_golden_payload_digest(
    tmp_path, capsys, combined_doc, negative_doc, generic_doc, argv, code, digest
):
    paths = {
        COMBINED: write_doc(tmp_path, "combined.json", combined_doc),
        NEGATIVE: write_doc(tmp_path, "negative.json", negative_doc),
        GENERIC: write_doc(tmp_path, "generic.json", generic_doc),
    }
    got, out, _ = run(capsys, [paths.get(a, a) for a in argv])
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of stdout of the deepest worked cases the command line is pinned at, in JSON and
# CSV, recorded before the spectral chain ran on integer parts: the Chebyshev case at the
# deepest example it accepts and the generic chain at four times the benchmark depth. The
# "Installed entry point" step of the CI workflow reads these lines and runs the same calls
DEEP_GOLDEN = [
    ("example chebyshev --depth 1000",
     "eba25500971ae93cf2e4c60c0cec7cbdb2c6688f01093b7f844bc9c7d3c3f68f"),
    ("example chebyshev --depth 1000 --format csv",
     "1651553db92c981b00aa7d84cc3ff57c232fd189fb2a17c95de0c15bad608046"),
    ("example jacobi-chain --alpha=1/3 --beta=2/7 --a1=3 --c1=-5 --depth 160",
     "972d93bca3f7fdd490a2da1db92381c1602eae3e63a086c950ec9ac76475f49c"),
    ("example jacobi-chain --alpha=1/3 --beta=2/7 --a1=3 --c1=-5 --depth 160 --format csv",
     "9f86163dbcef66007f8ffbcac51f6890bbec52e92d654dbb2944340c497bbc65"),
]


@pytest.mark.parametrize("command, digest", DEEP_GOLDEN, ids=[case[0] for case in DEEP_GOLDEN])
def test_deep_payload_digest(capsys, command, digest):
    code, out, _ = run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of stdout of both checkers on the gated200 document (below) at depth 200, in JSON,
# CSV and float mode, recorded before the induced recurrence was built as reduced integer
# parts; each verdict is negative, exit 1. The "Installed entry point" step of the CI
# workflow reads these lines and runs the same calls
GATED200_GOLDEN = [
    ("inverse-check --depth 200",
     "3edfacaa43b42090f4a348dd2755a24fbf8a61667d552a94818b6f08bf534d9e"),
    ("inverse-check --depth 200 --format csv",
     "4a073fa67bb0762c3084d86955b8370073433bc292e84d56837d3e092c94a14b"),
    ("inverse-check --depth 200 --mode float",
     "357a5a01f245a6ca98e32cb135a492b88487b1f872750241a7af3bf7a239f296"),
    ("constants --depth 200",
     "7a40115fe81d8d14f05778a06480c68a499aa27bf31cd8e3135c65fbe4fa6392"),
    ("constants --depth 200 --format csv",
     "b9320ab3240f54a15e08a86fcb12f7c8fecf136e366e2ebc153a8cf239755838"),
    ("constants --depth 200 --mode float",
     "e87b370fb840d940142292370e065614e7e9187dfcf81cb5dda55f87e68d9990"),
]


@pytest.mark.parametrize("command, digest", GATED200_GOLDEN,
                         ids=[case[0] for case in GATED200_GOLDEN])
def test_gated200_payload_digest(gated200, command, digest):
    code, out, _ = run_stdin(command.split() + ["-"], gated200)
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.fixture(scope="module")
def bench_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded from its file and
    only read."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["cheb-d80", "jacobi-generic-d40"])
def test_benchmark_casebook_payloads_match_their_digests(capsys, bench_workloads, name):
    """The full-size casebook calls of the benchmark give the payloads whose
    sha256 the benchmark records."""
    argv = {"cheb-d80": bench_workloads.CHEB_ARGV,
            "jacobi-generic-d40": bench_workloads.JACOBI_ARGV}[name]
    code, out, _ = run(capsys, list(argv))
    assert code == 0
    assert bench_workloads.payload_digest(out) == bench_workloads.DIGESTS[(name, False)]


@pytest.fixture(scope="module")
def gated200(bench_workloads):
    """The deepest document the benchmark's inverse-mix stream sends: a
    random gated instance at depth 200, as text."""
    beta, gamma, r, s, t = bench_workloads.random_gated_instance(random.Random(21), 200)
    return json.dumps({"recurrence": {"beta": beta, "gamma": gamma},
                       "relation": {"r": r, "s": s, "t": t}}, default=str)


def test_checkers_build_no_fraction_view_of_their_input(monkeypatch, gated200):
    """A parsed document's relation and recurrence keep their integer
    parts: neither classify, the checkers nor the closed forms build the
    Fraction side of either."""
    from mopsrel import (RecurrencePair, check_both, check_by_constants, classify,
                         relation_constants)
    from mopsrel.rational import _SequenceModel

    doc = json.loads(gated200)
    rec = RecurrencePair.from_json(doc["recurrence"])
    rel = Relation23.from_json(doc["relation"])
    built = []
    view = _SequenceModel._fractions

    def spy(model):
        if model is rec or model is rel:
            built.append(type(model).__name__)
        return view(model)

    monkeypatch.setattr(_SequenceModel, "_fractions", spy)
    classify(rel)
    check_both(rec, rel, 200)
    check_by_constants(rec, rel, 200)
    relation_constants(rec, rel)
    assert built == []
    assert rel.s[1] == Fraction(doc["relation"]["s"][1]) and built == ["Relation23"]


@pytest.mark.parametrize("command", ["inverse-check", "constants"])
def test_commands_build_no_fraction_view_of_any_model(monkeypatch, gated200, command):
    """From the parsed document to the written payload, JSON, CSV and
    float mode alike, no model builds its Fraction view: the closed forms
    read the induced gamma~ on numerators, and the writers spell each
    model (the verdicts' induced recurrences) from its integer parts."""
    from mopsrel.rational import _SequenceModel

    built = []
    view = _SequenceModel._fractions

    def spy(model):
        built.append(type(model).__name__)
        return view(model)

    monkeypatch.setattr(_SequenceModel, "_fractions", spy)
    for options in ([], ["--format", "csv"], ["--mode", "float"]):
        code, out, _ = run_stdin([command, "--depth", "200", *options, "-"], gated200)
        assert code == 1
        assert '"induced": {' in out or ".induced.beta[0]," in out
    assert built == []


def _unreduced(node):
    """The document with every p/q spelled 3p/3q."""
    if isinstance(node, dict):
        return {key: _unreduced(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_unreduced(value) for value in node]
    if "/" in node:
        return "/".join(str(3 * int(part)) for part in node.split("/"))
    return node


@pytest.mark.parametrize("command", ["classify", "inverse-check", "constants"])
def test_unreduced_document_gives_the_same_stdout(gated200, command):
    copy = json.dumps(_unreduced(json.loads(gated200)))
    assert copy != gated200
    argv = [command, "-"] if command == "classify" else [command, "--depth", "200", "-"]
    code, out, _ = run_stdin(argv, gated200)
    assert code == (0 if command == "classify" else 1)
    assert run_stdin(argv, copy)[:2] == (code, out)


def test_parser_is_built_once_and_reused(tmp_path, capsys, combined_doc):
    """main() builds its parser once per process; an argparse refusal on
    the shared parser leaves the later payloads as pinned."""
    assert _build_parser() is _build_parser()
    path = write_doc(tmp_path, "combined.json", combined_doc)
    code, out = run_exit(capsys, ["classify", "--format", "xml", path])
    assert code == 2 and out == ""
    pinned = {tuple(case[0]): case[1:] for case in GOLDEN}
    for argv in (
        ["classify", COMBINED],
        ["inverse-check", "--depth", "6", COMBINED],
        ["example", "chebyshev", "--depth", "6"],
    ):
        got, out, _ = run(capsys, [path if a == COMBINED else a for a in argv])
        assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == pinned[tuple(argv)]


def _float_value(node):
    if isinstance(node, str) and RATIONAL_PATTERN.match(node):
        return float(Fraction(node))
    if isinstance(node, list):
        return [_float_value(v) for v in node]
    if isinstance(node, dict):
        return {k: _float_value(v) for k, v in node.items()}
    return node


def _float_csv(text: str) -> str:
    lines = []
    for line in text.rstrip("\n").split("\n"):
        cells = [
            str(float(Fraction(cell)))
            if "/" in cell and RATIONAL_PATTERN.match(cell)
            else cell
            for cell in line.split(",")
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def float_reference(exact: str, fmt: str) -> str:
    """Float-mode stdout made from exact-mode stdout by re-parsing it, the
    way the command line once produced float mode: in JSON every rational
    string becomes a float, in CSV only the cells with a "/" do."""
    if not exact:
        return exact
    if fmt == "csv":
        return _float_csv(exact)
    return json.dumps(_float_value(json.loads(exact)), indent=2) + "\n"


def without_float(argv: list) -> list:
    i = argv.index("--mode")
    return argv[:i] + argv[i + 2:]


FLOAT_GOLDEN = [case[0] for case in GOLDEN if "float" in case[0]]


@pytest.mark.parametrize("argv", FLOAT_GOLDEN, ids=[" ".join(a) for a in FLOAT_GOLDEN])
def test_float_mode_matches_reference(tmp_path, capsys, combined_doc, negative_doc, argv):
    paths = {
        COMBINED: write_doc(tmp_path, "combined.json", combined_doc),
        NEGATIVE: write_doc(tmp_path, "negative.json", negative_doc),
    }
    argv = [paths.get(a, a) for a in argv]
    exact_code, exact, _ = run(capsys, without_float(argv))
    code, out, _ = run(capsys, argv)
    assert code == exact_code
    assert out == float_reference(exact, "csv" if "csv" in argv else "json")


def run_stdin(argv: list, text: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(text)):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(12, 60))
def test_float_mode_matches_reference_on_random_documents(seed, depth):
    rec, rel = random_gated_instance(random.Random(seed), depth)
    text = json.dumps({"recurrence": rec.to_json(), "relation": rel.to_json()}, default=str)
    for command in ("classify", "inverse-check", "constants"):
        for fmt in ("json", "csv"):
            argv = [command, "--depth", str(depth), "--format", fmt, "-"]
            exact_code, exact, _ = run_stdin(argv, text)
            code, out, _ = run_stdin(argv + ["--mode", "float"], text)
            assert code == exact_code
            assert out == float_reference(exact, fmt)


# what a mutation puts in a document's place: a wrong type, a zero, a huge
# entry (the last one past the interpreter's digit limit)
WRONG_VALUES = st.sampled_from([None, True, 1.5, "x", "1/0", "", {}, [], 7])
EXTREME_VALUES = st.sampled_from(["0", 0, "-0", str(10**60), f"-1/{10**60}", "9" * 5000])


def mutated(data, node):
    """``node`` with one mutation at a place drawn from it: a wrong type,
    a shorter list (or a dict without a key), a zero or huge entry, or one
    more level of nesting."""
    if isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        if isinstance(node, dict):
            key = data.draw(st.sampled_from(sorted(node)))
            return {**node, key: mutated(data, node[key])}
        i = data.draw(st.integers(0, len(node) - 1))
        return node[:i] + [mutated(data, node[i])] + node[i + 1:]
    kind = data.draw(st.sampled_from(["wrong", "short", "extreme", "nest"]))
    if kind == "wrong":
        return data.draw(WRONG_VALUES)
    if kind == "short":
        if isinstance(node, list):
            return node[: data.draw(st.integers(0, max(0, len(node) - 1)))]
        if isinstance(node, dict) and node:
            key = data.draw(st.sampled_from(sorted(node)))
            return {k: v for k, v in node.items() if k != key}
        return ""
    if kind == "extreme":
        return data.draw(EXTREME_VALUES)
    key = data.draw(st.sampled_from(["relation", "recurrence", "r", "beta"]))
    return data.draw(st.sampled_from([[node], {key: node}]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_documents_end_in_an_exit_code(combined_doc, negative_doc, data):
    """Every mutated document ends in exit 0, 1, 2 or 3, and never in the
    catch-all's internal error: each malformed input has its own refusal."""
    base = data.draw(st.sampled_from([combined_doc, negative_doc]))
    doc = json.loads(json.dumps(base, default=str))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutated(data, doc)
    text = json.dumps(doc)
    depth = data.draw(st.sampled_from(["5", "6"]))
    for command in ("classify", "inverse-check", "constants"):
        code, _, err = run_stdin([command, "--depth", depth, "-"], text)
        assert code in (0, 1, 2, 3)
        assert "internal error" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, condition",
    [
        (["classify", "a\x00b"], "cannot read a\x00b: embedded null byte"),
        (["example", "chebyshev", "--depth", "5", "--out", "a\x00b"],
         "cannot write a\x00b: embedded null byte"),
    ],
    ids=["input", "out"],
)
def test_nul_byte_paths_are_input_errors(capsys, argv, condition):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"mopsrel: {condition}" in err


def not_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


# argv words: the subcommands, the options and their values, and junk. A
# --depth value is invalid, 1001 (refused before any work) or at most 12,
# and no other word reads as an int above 12, so every run stays small
ARGV_WORDS = [
    "classify", "inverse-check", "constants", "example", "chebyshev", "jacobi-chain",
    "--format", "json", "csv", "xml", "--mode", "exact", "float",
    "--alpha", "--beta", "--a1", "--c1", "1/2", "-1/2", "-2/3", "2", "-2", "0", "1/0",
    "-", "--", "-h", "--help", "--bogus", "-x", "--depth=12", "--depth=1001", "a\x00b",
]
DEPTH_VALUES = ["-1", "0", "4", "x", "1e1", "", "1001", "5", "6", "12"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_argv_ends_in_an_exit_code(tmp_path, combined_doc, data):
    """Subcommands and flags mixed with junk end in exit 0, 1, 2 or 3 (an
    argparse refusal exits 2 and --help 0), never in a traceback or the
    catch-all's internal error."""
    outs = [str(tmp_path / "out.json"), str(tmp_path), str(tmp_path / "none" / "out.csv")]
    word = st.one_of(
        st.sampled_from(ARGV_WORDS).map(lambda w: [w]),
        st.sampled_from(DEPTH_VALUES).map(lambda d: ["--depth", d]),
        st.sampled_from(outs).map(lambda o: ["--out", o]),
        st.just([str(tmp_path / "missing.json")]),
        st.text(max_size=4).filter(not_an_int).map(lambda t: [t]),
    )
    argv = [w for words in data.draw(st.lists(word, max_size=8)) for w in words]
    head = data.draw(st.sampled_from(["classify", "inverse-check", "constants", "example", None]))
    if head:
        argv.insert(0, head)
    stdin = data.draw(st.sampled_from([
        json.dumps(combined_doc, default=str),
        json.dumps(combined_doc["relation"], default=str),
        "{", "",
    ]))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "internal error" not in err.getvalue() and "Traceback" not in err.getvalue()


# the leaves of a payload tree, which the writer must spell as json does:
# big ints, quotes, control characters, non-ASCII text and lone surrogates
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**300), -(10**200))
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é€", "\u2028", "\U0001f600", "\ud800"])
)
# payload trees: a dict at the root, dicts and lists inside
JSON_TREES = st.dictionaries(st.text(max_size=6), st.recursive(
    JSON_LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=40,
), max_size=4)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
@example({"": [{}, [[], {"": []}], []]})
@example({"a": {"b": [True, False, None, -(10**400), "\u2028"]}})
def test_json_writer_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2)


# payload trees with Failure records in lists and as dict values, and
# RecurrencePair and Relation23 leaves, beside the Fraction leaves and the
# plain ones. A model's entries run over integers, negatives and zeros, and
# denominators of 2^64 and more
FAILURES = st.builds(Failure, st.text(), st.none() | st.integers())
ENTRIES = (
    st.integers(-(10**30), 10**30)
    | st.fractions(-(10**9), 10**9, max_denominator=10**9)
    | st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(2**64, 2**80))
)
MODELS = (
    st.builds(RecurrencePair, st.lists(ENTRIES, max_size=4), st.lists(ENTRIES, max_size=4))
    | st.builds(lambda r, s, t: Relation23([0, *r], [0, *s], [0, 0, *t]),
                st.lists(ENTRIES, max_size=3), st.lists(ENTRIES, max_size=3),
                st.lists(ENTRIES, max_size=3))
)
RECORD_TREES = st.recursive(
    FAILURES
    | MODELS
    | st.fractions(-(10**9), 10**9, max_denominator=10**9)
    | st.none()
    | st.integers()
    | st.text(max_size=6),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=30,
)


def with_records_as_dicts(node, leaf=lambda value: value):
    """The tree with each Failure written out as the dict it stands for,
    each model as its ``to_json()`` and each Fraction as ``leaf`` gives it."""
    if type(node) is Failure:
        return {"condition": node.condition, "n": node.n}
    if isinstance(node, (RecurrencePair, Relation23)):
        return with_records_as_dicts(node.to_json(), leaf)
    if isinstance(node, dict):
        return {key: with_records_as_dicts(value, leaf) for key, value in node.items()}
    if isinstance(node, list):
        return [with_records_as_dicts(value, leaf) for value in node]
    return leaf(node) if type(node) is Fraction else node


# a payload tree's root is a dict or a list: a drawn leaf is put in a list
@pytest.mark.parametrize("spell, leaf", [(EXACT_JSON, format_rational), (FLOAT_JSON, float)],
                         ids=["exact", "float"])
@settings(max_examples=200, deadline=None)
@given(RECORD_TREES.map(lambda tree: tree if type(tree) in (dict, list) else [tree]))
@example({"failure": Failure("a1 must be nonzero", None), "ok": False})
@example([Failure("eqn1", 4), [Failure("\u2028\"", -(10**30))], {"": Failure("", 0)}])
@example({"induced": RecurrencePair([0, -3, Fraction(5, 2**64)], []),
          "rel": Relation23([0, 7], [0, Fraction(-1, 2**70 + 1)], [0, 0, 0])})
@example([RecurrencePair([], [Fraction(2**80 + 1, 3**41)]), [Relation23([0], [0], [0, 0])]])
def test_json_writer_spells_failure_records_as_json_dumps(spell, leaf, tree):
    plain = with_records_as_dicts(tree, leaf)
    assert _json_text(tree, spell) == json.dumps(plain, indent=2)
    # each model spelled from its parts as its to_json() Fractions are
    assert _json_text(tree, spell) == _json_text(with_records_as_dicts(tree), spell)


@pytest.mark.parametrize("spell", [EXACT_CELL, FLOAT_CELL], ids=["exact", "float"])
@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=6), RECORD_TREES, max_size=4))
@example({"": Failure("ci1", 2), "failures": [Failure("eqn1", 4), Failure("x", None)]})
@example({"induced": RecurrencePair([0, -3, Fraction(5, 2**64)], [1, 0]),
          "": [Relation23([0, 7], [0, Fraction(-1, 2**70 + 1)], [0, 0, 0])]})
def test_csv_writer_spells_failure_records_as_their_dicts(spell, tree):
    assert _csv_text(tree, spell) == _csv_text(with_records_as_dicts(tree), spell)


# model entries whose n / d is beyond the float range, and one past the
# interpreter's digit limit on printing an int, after entries that are not
OVERSIZED_ENTRIES = [Fraction(10**400, 3), Fraction(-(10**309)), Fraction(7, 10**400 + 1)]
if DIGIT_LIMIT := getattr(sys, "get_int_max_str_digits", lambda: 0)():
    OVERSIZED_ENTRIES.append(Fraction(10**DIGIT_LIMIT + 1, 2))


@pytest.mark.parametrize("big", OVERSIZED_ENTRIES, ids=lambda big: f"{big.numerator.bit_length()}-bit")
@pytest.mark.parametrize(
    "spell, reference",
    [(EXACT_JSON, _exact_json), (FLOAT_JSON, _float_text), (EXACT_CELL, format_rational),
     (FLOAT_CELL, _float_cell)],
    ids=["json-exact", "json-float", "csv-exact", "csv-float"],
)
def test_writers_refuse_a_model_entry_as_its_fraction(spell, reference, big):
    """A model entry that its spelling cannot write raises the FormatError
    that the Fraction spelling raises for the same value (in float mode
    ``_float_text``'s, for an entry whose n / d overflows), and an entry
    that neither refuses is written as the Fraction spelling writes it."""
    rec = RecurrencePair([1, Fraction(-1, 3), big], [big])
    tree = {"n": 4, "induced": rec}
    write = _csv_text if spell in (EXACT_CELL, FLOAT_CELL) else _json_text
    try:
        expected = reference(big)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            write(tree, spell)
        assert str(got.value) == str(exc)
    else:
        assert expected in write(tree, spell)


def test_failure_records_cost_the_json_writer_no_call(tmp_path, monkeypatch, negative_doc):
    """The depth-60 negative inverse-check payload takes no more writer
    calls than the same payload with empty failure lists: each record of a
    list is written from the template, not by a call of its own."""
    import mopsrel.cli as cli

    args = _build_parser().parse_args(
        ["inverse-check", "--depth", "60", write_doc(tmp_path, "negative.json", negative_doc)]
    )
    payload, code, _ = COMMANDS["inverse-check"](args)
    assert code == 1
    verdicts = ("verdict_equations", "verdict_constants")
    assert all(len(payload[key]["failures"]) > 100 for key in verdicts)
    bare = dict(payload, **{key: dict(payload[key], failures=[]) for key in verdicts})
    calls = []
    real = cli._json_text

    def counted(node, *rest):
        calls.append(node)
        return real(node, *rest)

    monkeypatch.setattr(cli, "_json_text", counted)
    counted(payload)
    with_failures = len(calls)
    calls.clear()
    counted(bare)
    assert with_failures <= len(calls)


def test_json_writer_refuses_what_json_refuses():
    for bad in ({1, 2}, object(), [b"bytes"]):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            _json_text(bad)
    # and what no payload holds: a float leaf, a tuple container, a scalar root
    for bad in ({"x": 1.5}, [0.0], {"x": (1, 2)}, [()], "text", 7, None, True, Fraction(1, 3)):
        with pytest.raises(TypeError):
            _json_text(bad)
