"""Command line front end.

Subcommands:

* ``classify`` - read a 2-3 relation and print its classification.
* ``inverse-check`` - read a recurrence and a relation, run both
  orthogonality checkers, and report their verdicts.
* ``constants`` - read a recurrence and a relation, print the functional
  identity constants from the closed forms and from the constancy checker.
* ``example`` - run one of the built-in worked cases end to end.

Exit codes: 0 success, 1 a checked property genuinely fails (not
orthogonal, inadmissible parameters), 2 malformed or out-of-domain input
(``FormatError``, ``DepthError``, ``DomainError``; non-UTF-8 text
included), 3 internal inconsistency (``ContractError``: independent
computations disagree) or any other exception, reported without a
traceback. The exception's type alone decides the code.

Each command only computes: it returns its payload, exit code and an
optional note, and ``_dispatch`` writes the payload, then the note, for all
of them. Output is deterministic: the payload contains no timestamps or
environment data, so identical inputs give byte-identical output.

Both edges stay on the reduced integer parts that ``RecurrencePair`` and
``Relation23`` store: a document's lists are parsed a list at a time
(``rational._scalar_parts``), and a model in the payload (a verdict's
induced recurrence, a report's relation and recurrences) is written from
its parts, so no Fraction view of a model is built between the document
and the written payload. A verdict's failure list is written from one
template (``_record_texts``).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .casebook import chebyshev_case, jacobi_chain
from .errors import ContractError, DepthError, DomainError, FormatError
from .families import JacobiParams
from .functional import RecurrencePair
from .rational import _decimal_digits, _SequenceModel, format_rational, parse_rational
from .relation23 import (
    Failure,
    Relation23,
    check_both,
    check_by_constants,
    classify,
    relation_constants,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# the largest --depth of ``example``, whose work grows with the depth alone
# (the other commands are bounded by their input document)
EXAMPLE_MAX_DEPTH = 1000

# options of ``example`` that take a rational, possibly negative: argparse
# reads a value such as "-1/4" as an option flag, so ``main`` joins it to
# its option as "--a1=-1/4"
RATIONAL_OPTIONS = ("--alpha", "--beta", "--a1", "--c1")
NEGATIVE_VALUE = re.compile(r"^-[0-9]")


# The payload trees hold Fraction, Failure and model leaves; only the command
# line spells them: a rational by the spelling of the output mode (a Fraction
# through its ``value``, a model's entries from their parts through ``texts``),
# a model as the object its to_json() gives, a Failure as a {"condition", "n"}
# object or two rows.


def _float_text(value: Fraction) -> str:
    """The nearest float, as json and str spell it."""
    try:
        return float.__repr__(float(value))
    except OverflowError as exc:
        digits = max(_decimal_digits(value.numerator), _decimal_digits(value.denominator))
        raise FormatError(
            f"a rational with {digits} decimal digits is beyond the float range: {exc}"
        ) from exc


def _exact_json(value: Fraction) -> str:
    return f'"{format_rational(value)}"'  # "p" or "p/q" needs no escaping


def _float_cell(value: Fraction) -> str:
    # an integer cell (indices included) is already consumable as a number
    return format_rational(value) if value.denominator == 1 else _float_text(value)


class _Spelling:
    """How one output mode writes a rational: ``value`` spells a Fraction,
    and ``texts`` spells the entries of reduced (numerators, denominators)
    lists as ``value`` spells the same Fractions."""

    __slots__ = ("value", "texts")

    def __init__(self, value, texts):
        self.value, self.texts = value, texts

    def parts(self, nums: list, dens: list) -> list:
        """``texts``, or, when an entry is past the digit limit or the float
        range, the FormatError that ``value`` raises for the first such entry."""
        try:
            return self.texts(nums, dens)
        except (ValueError, OverflowError):
            return [self.value(Fraction(n, d)) for n, d in zip(nums, dens)]


# a float is n / d, the division float(Fraction(n, d)) makes
EXACT_JSON = _Spelling(_exact_json, lambda nums, dens: [
    f'"{n}"' if d == 1 else f'"{n}/{d}"' for n, d in zip(nums, dens)])
FLOAT_JSON = _Spelling(_float_text, lambda nums, dens: [
    float.__repr__(n / d) for n, d in zip(nums, dens)])
EXACT_CELL = _Spelling(format_rational, lambda nums, dens: [
    f"{n}" if d == 1 else f"{n}/{d}" for n, d in zip(nums, dens)])
FLOAT_CELL = _Spelling(_float_cell, lambda nums, dens: [
    f"{n}" if d == 1 else float.__repr__(n / d) for n, d in zip(nums, dens)])

def _record_texts(records, pad: str) -> list:
    """The text of ``json.dumps({"condition": c, "n": n}, indent=2)`` for
    each record (c, n), at the nesting level whose newline and indent is
    ``pad``: one template, and one quoted name per condition."""
    inner = pad + "  "
    head, tail = f'{{{inner}"condition": ', pad + "}"
    names = {c: f'{head}{encode_basestring_ascii(c)},{inner}"n": ' for c in {c for c, _ in records}}
    return [f"{names[c]}{'null' if n is None else n}{tail}" for c, n in records]


def _model_json(model, spell: _Spelling, pad: str) -> str:
    """The text of the object ``model.to_json()``, each entry spelled from its parts."""
    inner = pad + "  "
    item = "," + inner + "  "
    return "{" + inner + ("," + inner).join([
        encode_basestring_ascii(key) + ": "
        + (f"[{inner}  {item.join(spell.parts(nums, dens))}{inner}]" if nums else "[]")
        for key, (nums, dens) in zip(model._KEYS, model._integers())
    ]) + pad + "}"


def _json_text(node, spell: _Spelling = EXACT_JSON, pad: str = "\n") -> str:
    """The text json's ``dumps`` writes with ``indent=2``, byte for byte,
    for a payload tree: dicts with string keys and lists, whose leaves are
    strings, ints, bools, None, Fractions, models and Failure records. A
    Fraction is the JSON text ``spell.value`` gives it, a model is written
    as the object of its ``to_json()`` (``_model_json``), and a Failure
    record (c, n) as the object {"condition": c, "n": n} would be. Anything
    else, a float, a tuple or a scalar root among them, raises TypeError.
    json runs its pure-Python encoder whenever ``indent`` is set; this
    joins strings quoted by its C quoter instead, at about half the cost.
    A scalar leaf is written in its container's pass, with no call, and a
    list of Failure records from one template (``_record_texts``)."""
    if type(node) is Failure:  # a tuple, which would otherwise be refused
        return _record_texts((node,), pad)[0]
    if isinstance(node, _SequenceModel):
        return _model_json(node, spell, pad)
    is_dict = isinstance(node, dict)
    if not is_dict and not isinstance(node, list):
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")
    ends = "{}" if is_dict else "[]"
    if not node:
        return ends
    render, inner = spell.value, pad + "  "
    if not is_dict and type(node[0]) is Failure and len(set(map(type, node))) == 1:
        items = _record_texts(node, inner)
    else:
        items = [
            render(value) if type(value) is Fraction
            else encode_basestring_ascii(value) if type(value) is str
            else int.__repr__(value) if type(value) is int
            else "null" if value is None else "true" if value is True
            else "false" if value is False
            else _json_text(value, spell, inner)
            for value in (node.values() if is_dict else node)
        ]
    if is_dict:
        items = [encode_basestring_ascii(key) + ": " + item for key, item in zip(node, items)]
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def _csv_text(payload, spell: _Spelling) -> str:
    """A report's rows of cells, or a payload tree flattened to key,value
    rows, as CSV text; ``spell`` writes a rational, None is an empty cell."""
    if isinstance(payload, dict):
        return "key,value\n" + "".join([
            f"{key},{value}\n" for key, value in _flatten("", payload, spell)
        ])
    render = spell.value
    return "".join([
        ",".join([
            render(value) if type(value) is Fraction
            else "" if value is None else str(value)
            for value in row
        ]) + "\n"
        for row in payload
    ])


def _emit(payload, args: argparse.Namespace) -> None:
    """Render the whole payload, then write it: a value that cannot be
    rendered leaves stdout and the ``--out`` file untouched."""
    float_mode = args.mode == "float"
    if args.format == "csv":
        text = _csv_text(payload, FLOAT_CELL if float_mode else EXACT_CELL)
    else:
        text = _json_text(payload, FLOAT_JSON if float_mode else EXACT_JSON) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte in the path
        raise FormatError(f"cannot write {args.out}: {exc}") from exc


def _flatten(prefix: str, node, spell: _Spelling) -> list:
    """The (path, cell) rows of a payload tree, in order, each rational
    spelled by ``spell`` and a model's entries from their parts."""
    if isinstance(node, dict):
        items = [(f"{prefix}.{key}" if prefix else str(key), value) for key, value in node.items()]
    elif isinstance(node, list):
        items = [(f"{prefix}[{i}]", value) for i, value in enumerate(node)]
    elif type(node) is Failure:
        # the rows of the object {"condition": ..., "n": ...}
        head = f"{prefix}." if prefix else ""
        return [(head + "condition", node.condition),
                (head + "n", "" if node.n is None else node.n)]
    elif isinstance(node, _SequenceModel):
        # the rows of the object its to_json() gives
        head = f"{prefix}." if prefix else ""
        return [(f"{head}{key}[{i}]", text)
                for key, (nums, dens) in zip(node._KEYS, node._integers())
                for i, text in enumerate(spell.parts(nums, dens))]
    elif type(node) is Fraction:
        return [(prefix, spell.value(node))]
    else:
        return [(prefix, "" if node is None else node)]
    return [pair for path, value in items for pair in _flatten(path, value, spell)]


def _load_document(source: str) -> dict:
    name = "stdin" if source == "-" else source
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{name} is not UTF-8 text: {exc}") from exc
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte in the path
        raise FormatError(f"cannot read {name}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"input is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past the interpreter's digit limit, or
        # nesting past its recursion limit
        raise FormatError(f"input exceeds an interpreter limit: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("input document must be a JSON object")
    return doc


def _relation_from(doc: dict) -> Relation23:
    data = doc.get("relation", doc)
    return Relation23.from_json(data)


def _recurrence_from(doc: dict) -> RecurrencePair:
    data = doc.get("recurrence", doc)
    return RecurrencePair.from_json(data)


def _load_pair(args: argparse.Namespace) -> tuple[RecurrencePair, Relation23]:
    """One combined document, or a recurrence file then a relation file."""
    if len(args.input) == 2:
        rec = _recurrence_from(_load_document(args.input[0]))
        rel = _relation_from(_load_document(args.input[1]))
        return rec, rel
    doc = _load_document(args.input[0])
    return _recurrence_from(doc), _relation_from(doc)


def _cmd_classify(args: argparse.Namespace):
    return classify(_relation_from(_load_document(args.input[0]))).to_json(), EXIT_OK, None


def _closed_form(rec: RecurrencePair, rel: Relation23, verdict):
    """The closed-form constants as JSON, with the exit code and note they
    give beside the constancy verdict: 1 when it is negative (None for them
    if they divide by a zero gamma~_1 or gamma~_2), 3 when its triple is not
    their (a, b, c)."""
    if not verdict.is_mops and 0 in verdict.induced._integers()[1][0][:2]:  # gamma~'s numerators
        return None, EXIT_NEGATIVE, None
    fr = relation_constants(rec, rel)
    if not verdict.is_mops:
        return fr.to_json(), EXIT_NEGATIVE, None
    if verdict.constants != (fr.a, fr.b, fr.c):
        return fr.to_json(), EXIT_INTERNAL, "closed-form constants disagree with the constancy triple"
    return fr.to_json(), EXIT_OK, None


def _cmd_inverse_check(args: argparse.Namespace):
    rec, rel = _load_pair(args)
    # one window for both verdicts; check_both refuses a zero gamma_n, n <= depth
    case, verdict_eq, verdict_ct = check_both(rec, rel, args.depth)
    agree = verdict_eq.is_mops == verdict_ct.is_mops
    payload = {
        "depth": args.depth,
        "classification": case.to_json(),
        "verdict_equations": verdict_eq.to_json(),
        "verdict_constants": verdict_ct.to_json(),
        "agree": agree,
        "is_mops": verdict_eq.is_mops if agree else None,
    }
    if not agree:
        return payload, EXIT_INTERNAL, "the two checkers disagree"
    if not verdict_eq.is_mops:
        return payload, EXIT_NEGATIVE, None
    payload["functional_relation"], code, note = _closed_form(rec, rel, verdict_ct)
    return payload, code, note


def _cmd_constants(args: argparse.Namespace):
    rec, rel = _load_pair(args)
    # the checker admits the data first, so its refusals are inverse-check's
    verdict = check_by_constants(rec, rel, args.depth)
    fr, code, note = _closed_form(rec, rel, verdict)
    payload = {
        "depth": args.depth,
        "functional_relation": fr,
        "verdict_constants": verdict.to_json(),
    }
    if code == EXIT_OK:
        payload["agree"] = True
    return payload, code, note


def _cmd_example(args: argparse.Namespace):
    if args.case == "chebyshev":
        report = chebyshev_case(args.depth)
    else:
        params = JacobiParams(parse_rational(args.alpha), parse_rational(args.beta))
        report = jacobi_chain(params, parse_rational(args.a1), parse_rational(args.c1), args.depth)
    payload = report.to_csv() if args.format == "csv" else report.to_json()
    if args.case != "chebyshev" and not report.ok:
        return payload, EXIT_NEGATIVE, report.failure.condition
    return payload, EXIT_OK, None


COMMANDS = {
    "classify": _cmd_classify,
    "inverse-check": _cmd_inverse_check,
    "constants": _cmd_constants,
    "example": _cmd_example,
}


# built on the first call and reused: argparse looks up sys.stdout,
# sys.stderr and the terminal width only when it prints
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mopsrel",
        description="classify 2-3 relations between monic orthogonal "
        "polynomial sequences and solve the associated inverse problem "
        "in exact rational arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input: bool) -> None:
        p.add_argument("--depth", type=int, default=20,
                       help="largest index checked (default 20)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--mode", choices=("exact", "float"), default="exact",
                       help="render rationals exactly or as floats")
        p.add_argument("--out", default=None, help="write output to a file")
        if with_input:
            p.add_argument(
                "input", nargs="*", default=["-"],
                help="one combined JSON file ('-' for stdin), or a "
                "recurrence file followed by a relation file",
            )

    common(sub.add_parser("classify", help="classify a 2-3 relation"), True)
    common(sub.add_parser(
        "inverse-check",
        help="decide whether the relation output is again orthogonal",
    ), True)
    common(sub.add_parser(
        "constants",
        help="compute the functional identity constants (lambda, c, a, b)",
    ), True)
    ex = sub.add_parser("example", help="run a built-in worked case")
    ex.add_argument("case", choices=("chebyshev", "jacobi-chain"))
    ex.add_argument("--alpha", default="1/2")
    ex.add_argument("--beta", default="1/2")
    ex.add_argument("--a1", default="2")
    ex.add_argument("--c1", default="-2")
    common(ex, False)
    return parser


def _join_negative_values(argv: list) -> list:
    joined: list = []
    for arg in argv:
        if joined and joined[-1] in RATIONAL_OPTIONS and NEGATIVE_VALUE.match(arg):
            joined[-1] = f"{joined[-1]}={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_negative_values(argv))
    code = _dispatch(args)
    # run metadata goes to stderr so the payload stays byte-reproducible
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    print(
        f"# mopsrel {args.command} depth={args.depth} exit={code} time={stamp}",
        file=sys.stderr,
    )
    return code


def _dispatch(args: argparse.Namespace) -> int:
    try:
        if args.command != "classify" and args.depth < 5:
            raise DepthError("--depth must be at least 5")
        if args.command == "example":
            if args.depth > EXAMPLE_MAX_DEPTH:
                raise DepthError(f"--depth of example must be at most {EXAMPLE_MAX_DEPTH}")
        elif len(args.input) > 2 or (args.command == "classify" and len(args.input) != 1):
            raise FormatError(
                "expected one combined input file, or a recurrence file and a relation file"
            )
        payload, code, note = COMMANDS[args.command](args)
        _emit(payload, args)
        if note:
            print(f"{args.command}: {note}", file=sys.stderr)
        return code
    except (FormatError, DepthError, DomainError) as exc:
        print(f"mopsrel: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ContractError as exc:
        print(f"mopsrel: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # a refusal the commands missed: an exit code, not a traceback
        print(f"mopsrel: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
