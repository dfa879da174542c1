"""Batch command line surface with deterministic, machine-readable reports."""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterable

from .errors import Gl2Error, LemmaViolationError, PreconditionError, UsageError
from .modarith import Mat2, gl2_order
from .groups import NamedGroupId, subgroup_from_json
from .stabilizers import ProjPoint, degree_spectrum, exhaustive_spectrum
from .lemmas import decompose_sl2
from .classify import classify_image, derive_delta
from .bounds import FieldInput, bound_report, congruence_sieve, torsion_preservation_report
from .verify import HARNESS_IDS, run_harness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_FALSIFIED = 3


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


def _emit(fmt: str, payload: dict, rows: Iterable[tuple], header: tuple[str, ...]) -> None:
    """Print the payload as JSON, or the rows as csv or text; rows may be a
    generator, which JSON output never runs."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    else:
        for row in rows:
            print("\t".join(str(x) for x in row))


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _cmd_verify(args) -> int:
    result = run_harness(
        args.harness, ell_max=args.ell_max, trials=args.trials, seed=args.seed
    )
    rows = [("harness", result.harness_id), ("checked", result.checked), ("ok", result.ok)]
    rows += [(k, result.details[k]) for k in sorted(result.details)]
    rows += [("violation", v) for v in result.violations]
    _emit(args.format, result.to_dict(), rows, ("key", "value"))
    return EXIT_OK if result.ok else EXIT_FALSIFIED


def _cmd_classify(args) -> int:
    g = subgroup_from_json(_read_file(args.input))
    if args.witness is not None:
        try:
            c, d = (int(x) for x in args.witness.split(","))
        except ValueError as exc:
            print("error: witness must be two integers c,d", file=sys.stderr)
            raise SystemExit(EXIT_USAGE) from exc
        witness = ProjPoint.from_vector(g.n, c, d)
    else:
        witness = degree_spectrum(g).odd_index_point()
        if witness is None:
            raise PreconditionError("no projective point with odd stabilizer index")
    verdict = classify_image(g, witness)
    payload = verdict.to_dict()
    payload["witness"] = [witness.c, witness.d]
    if verdict.target is NamedGroupId.BOREL and len(g.det_image()) == g.n - 1:
        try:
            payload["borel_refinement"] = derive_delta(g).to_dict()
        except PreconditionError as exc:
            payload["borel_refinement"] = f"not derivable: {exc}"
    rows = ((k, json.dumps(payload[k], sort_keys=True)) for k in sorted(payload))
    _emit(args.format, payload, rows, ("field", "value"))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = subgroup_from_json(_read_file(args.input))
    if args.exhaustive:
        entries = exhaustive_spectrum(g)
        rows = ((f"({c},{d})", g.order // idx, idx) for (c, d), idx in entries.items())
        payload = {
            "group_order": g.order,
            "entries": {f"{c},{d}": idx for (c, d), idx in entries.items()},
        }
    else:
        spec = degree_spectrum(g)
        rows = list(spec.as_rows()) + [("sl_index", "-", spec.sl_index)]
        payload = {
            "group_order": spec.group_order,
            "entries": {repr(p): idx for p, idx in spec.entries.items()},
            "sl_index": spec.sl_index,
        }
    _emit(args.format, payload, rows, ("point", "stab_order", "index"))
    return EXIT_OK


def _cmd_sieve(args) -> int:
    primes = congruence_sieve(args.max)
    _emit(args.format, {"limit": args.max, "primes": primes}, [(p,) for p in primes], ("prime",))
    return EXIT_OK


def _cmd_bound(args) -> int:
    inp = FieldInput.from_json(_read_file(args.input))
    report = bound_report(inp)
    payload = report.to_dict()
    rows = [
        ("label", report.label),
        ("p_k", report.p_k),
        ("r_set", " ".join(str(p) for p in sorted(report.r_set))),
        ("sieve_window", " ".join(str(p) for p in report.sieve_window)),
    ]
    if args.degree is not None:
        pres = torsion_preservation_report(inp, args.degree)
        payload["preservation"] = pres.to_dict()
        rows.append(("degree", pres.degree))
        rows.append(("preserved", pres.preserved))
        rows += [("note", note) for note in pres.large_prime_notes]
    _emit(args.format, payload, rows, ("key", "value"))
    return EXIT_OK


def _cmd_order(args) -> int:
    order = gl2_order(args.modulus)
    _emit(
        args.format,
        {"modulus": args.modulus, "order": order},
        [(args.modulus, order)],
        ("modulus", "order"),
    )
    return EXIT_OK


def _cmd_decompose(args) -> int:
    try:
        a, b, c, d = (int(x) for x in args.matrix.split(","))
    except ValueError as exc:
        print("error: matrix must be four integers a,b,c,d", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc
    word = decompose_sl2(Mat2(args.ell, a, b, c, d))
    payload = {
        "matrix": [a % args.ell, b % args.ell, c % args.ell, d % args.ell],
        "word": [[letter, exp] for letter, exp in word.letters],
        "length": len(word),
    }
    rows = [(letter, exp) for letter, exp in word.letters]
    if args.format == "text":
        print(str(word))
        return EXIT_OK
    _emit(args.format, payload, rows, ("letter", "exponent"))
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "sieve": _cmd_sieve,
    "bound": _cmd_bound,
    "order": _cmd_order,
    "decompose": _cmd_decompose,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except LemmaViolationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Gl2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
