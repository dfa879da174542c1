"""Batch command line surface with deterministic, machine-readable reports."""
from __future__ import annotations

import functools
import json
import operator
import re
import sys
from types import SimpleNamespace
from typing import Iterable, NamedTuple, NoReturn

from .errors import Gl2Error, LemmaViolationError, PreconditionError, UsageError
from .modarith import Mat2, gl2_order
from .groups import NamedGroupId, subgroup_from_json
from .stabilizers import ProjPoint, degree_spectrum, exhaustive_indices
from .lemmas import decompose_sl2
from .classify import classify_image, derive_delta
from .bounds import FieldInput, bound_report, congruence_sieve, torsion_preservation_report
from .verify import HARNESS_IDS, run_harness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_FALSIFIED = 3


class _Option(NamedTuple):
    """A --name option that takes an int or a str value, or a flag (bool)
    that takes none."""

    name: str
    kind: type
    help: str
    required: bool = False
    choices: tuple[str, ...] = ()
    default: object = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")

    @property
    def usage(self) -> str:
        if self.kind is bool:
            return self.name
        metavar = "{%s}" % ",".join(self.choices) if self.choices else self.dest.upper()
        return f"{self.name} {metavar}"


_HELP = _Option("-h, --help", bool, "show this help and exit")

# The command line, one row per verb: its help line, its options, and its
# positional as (dest, choices) or None. The parser, the usage lines and the
# help text all read this table.
_VERBS: dict[str, tuple[str, tuple[_Option, ...], tuple[str, tuple[str, ...]] | None]] = {
    "verify": (
        "run a falsification harness",
        (
            _Option("--ell-max", int, "largest prime ell to check"),
            _Option("--trials", int, "random groups to draw"),
            _Option("--seed", int, "seed of the random draws"),
        ),
        ("harness", HARNESS_IDS),
    ),
    "classify": (
        "classify a subgroup's ambient shape",
        (
            _Option("--input", str, "subgroup JSON file", required=True),
            _Option("--witness", str, "row vector c,d with odd index"),
        ),
        None,
    ),
    "spectrum": (
        "degree spectrum of a subgroup",
        (
            _Option("--input", str, "subgroup JSON file", required=True),
            _Option("--exhaustive", bool, "index of every nonzero vector", default=False),
        ),
        None,
    ),
    "sieve": (
        "primes passing the mod-36 filter",
        (_Option("--max", int, "largest number to test", required=True),),
        None,
    ),
    "bound": (
        "prime bound report for a field input",
        (
            _Option("--input", str, "field input JSON file", required=True),
            _Option("--degree", int, "extension degree to test"),
        ),
        None,
    ),
    "order": (
        "order of the invertible 2x2 matrix group",
        (_Option("--modulus", int, "the modulus N of GL2(Z/NZ)", required=True),),
        None,
    ),
    "decompose": (
        "shear word for a determinant-1 matrix",
        (
            _Option("--ell", int, "prime modulus", required=True),
            _Option("--matrix", str, "entries a,b,c,d", required=True),
        ),
        None,
    ),
}

# a token that starts with "-" and still reads as a positional, when no option matches it
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Grammar:
    """The grammar of the top level or of one verb: its options by each of
    their names, its positional as (dest, choices) or None, its defaults
    and its usage line. At the top level (rest) the positional is the verb,
    and the words after it are the verb's."""

    def __init__(self, prog, help, options, positional, rest=False):
        self.help, self.options, self.positional, self.rest = help, options, positional, rest
        self.names = {"-h": _HELP, "--help": _HELP} | {o.name: o for o in options}
        self.defaults = {o.dest: o.default for o in options}
        self.required = [(o.dest, o.name) for o in options if o.required]
        parts = ["usage:", prog, "[-h]"]
        parts += [o.usage if o.required else f"[{o.usage}]" for o in options]
        if positional is not None:
            self.metavar = positional[0].upper()
            self.defaults[positional[0]] = None
            self.required.append((positional[0], self.metavar))
            parts.append(self.metavar + " ..." if rest else self.metavar)
        self.usage = " ".join(parts)

    def resolve(self, token: str) -> tuple[_Option | None, str | None] | None:
        """How one token reads here: None for a positional, else the option
        it names (None for no option of this grammar) and the value written
        after its "=" (None without one). A long option may be named by a
        unique prefix of its name, and a short one may have a value run on
        ("-hx" is -h with the value x)."""
        if token[:1] != "-":
            return None
        option = self.names.get(token)
        if option is not None:
            return option, None
        if len(token) == 1:
            return None
        name, eq, value = token.partition("=")
        if eq and name in self.names:
            return self.names[name], value
        if token[1] == "-":
            hits = [key for key in self.names if key.startswith(name)]
            if len(hits) > 1:
                _fail(self, f"ambiguous option: {token} could match {', '.join(hits)}")
            if hits:
                return self.names[hits[0]], value if eq else None
        elif token[:2] in self.names:
            return self.names[token[:2]], token[2:]
        if _NEGATIVE_NUMBER.match(token) or " " in token:
            return None
        return None, None

    def help_text(self) -> str:
        sections = []
        if self.rest:
            rows = [(verb, row[0]) for verb, row in _VERBS.items()]
            sections.append(("verbs", rows))
        elif self.positional is not None:
            rows = [(self.metavar, "one of " + ", ".join(self.positional[1]))]
            sections.append(("positional arguments", rows))
        rows = [(o.usage, o.help) for o in (_HELP, *self.options)]
        sections.append(("options", rows))
        lines = [self.usage, ""] + ([self.help, ""] if self.help else [])
        for title, rows in sections:
            width = max(len(left) for left, _ in rows) + 2
            lines += [f"{title}:", *(f"  {left:<{width}}{right}" for left, right in rows), ""]
        return "\n".join(lines[:-1])


_TOP = _Grammar(
    "gl2tors",
    "",
    (_Option("--format", str, "output format", choices=("text", "json", "csv"), default="text"),),
    ("verb", tuple(_VERBS)),
    rest=True,
)
_GRAMMARS = {
    verb: _Grammar(f"gl2tors {verb}", help, options, positional)
    for verb, (help, options, positional) in _VERBS.items()
}


def _fail(grammar: _Grammar, reason: str) -> NoReturn:
    """Print the grammar's usage line to stderr and raise the UsageError that
    main prints as the next line."""
    print(grammar.usage, file=sys.stderr)
    raise UsageError(reason)


def _scan(grammar: _Grammar, tokens: list[str], i: int, values: dict, extras: list) -> int | None:
    """Read tokens[i:] left to right into values: an option takes the next
    token as its value unless that token reads as an option, the first free
    positional fills the grammar's positional, and tokens that are no
    option here go to extras, which fail once the line is read. Returns the
    index after the last token read: the end, or just past the verb at the
    top level; or None once help is printed."""
    n = len(tokens)
    while i < n:
        token = tokens[i]
        i += 1
        hit = grammar.resolve(token)
        if hit is None:
            if grammar.positional is None or values[grammar.positional[0]] is not None:
                extras.append(token)
                continue
            dest, choices = grammar.positional
            if token not in choices:
                reason = f"invalid choice: {token!r} (choose from {', '.join(choices)})"
                _fail(grammar, f"argument {grammar.metavar}: {reason}")
            values[dest] = token
            if grammar.rest:
                return i
            continue
        option, value = hit
        if option is None:
            extras.append(token)
        elif option.kind is bool:
            if value is not None:
                _fail(grammar, f"argument {option.name}: ignored explicit argument {value!r}")
            if option is _HELP:
                print(grammar.help_text())
                return None
            values[option.dest] = True
        else:
            if value is None:
                if i == n or grammar.resolve(tokens[i]) is not None:
                    _fail(grammar, f"argument {option.name}: expected one argument")
                value = tokens[i]
                i += 1
            if option.kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(grammar, f"argument {option.name}: invalid int value: {value!r}")
            elif option.choices and value not in option.choices:
                reason = f"invalid choice: {value!r} (choose from {', '.join(option.choices)})"
                _fail(grammar, f"argument {option.name}: {reason}")
            values[option.dest] = value
    return i


def _require(grammar: _Grammar, values: dict) -> None:
    missing = [name for dest, name in grammar.required if values[dest] is None]
    if missing:
        _fail(grammar, f"the following arguments are required: {', '.join(missing)}")


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The options of a command line: a namespace with format, verb and
    every dest of the verb, its default where not given; or None once -h
    has printed help. A bad command line, and any bare "--", raises
    UsageError after printing a usage line."""
    if "--" in argv:
        _fail(_TOP, "a bare -- is not accepted; write a value that starts with - as --name=value")
    values = dict(_TOP.defaults)
    extras: list[str] = []
    i = _scan(_TOP, argv, 0, values, extras)
    if i is None:
        return None
    _require(_TOP, values)
    grammar = _GRAMMARS[values["verb"]]
    values.update(grammar.defaults)
    if _scan(grammar, argv, i, values, extras) is None:
        return None
    _require(grammar, values)
    if extras:
        _fail(grammar, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


@functools.cache
def _exhaustive_reply(ell: int) -> tuple[tuple[str, ...], str, operator.itemgetter]:
    """The parts of a `spectrum --exhaustive` reply mod ell that no group
    changes: the text and csv points "(c,d)" of the nonzero vectors in
    exhaustive_indices' order; the JSON reply as a template, its keys "c,d"
    in the string order of json.dumps(sort_keys=True) with one %d each and a
    last %d for the group order; and the itemgetter that puts the indices
    in the template's order."""
    keys = [f"{c},{d}" for c in range(ell) for d in range(ell)][1:]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    entries = ", ".join(f'"{keys[i]}": %d' for i in order)
    template = f'{{"entries": {{{entries}}}, "group_order": %d}}'
    return tuple(f"({key})" for key in keys), template, operator.itemgetter(*order)


def _emit(fmt: str, payload: dict, rows: Iterable[tuple], header: tuple[str, ...]) -> None:
    """Print the payload as JSON, or the rows as csv or text; rows may be a
    generator, which JSON output never runs."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    else:
        for row in rows:
            print("\t".join(str(x) for x in row))


def _read_input(path: str, what: str) -> object:
    """The decoded JSON value of an --input file of the given kind. A file
    that cannot be read raises UsageError, which exits 1; one that is not
    UTF-8 JSON that Python can hold (an integer literal past its digit
    limit, or nesting past its recursion limit) raises PreconditionError,
    which exits 2."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.loads(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise PreconditionError(f"malformed {what} input: {exc}") from exc


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
    g = subgroup_from_json(_read_input(args.input, "subgroup"))
    if args.witness is not None:
        try:
            c, d = (int(x) for x in args.witness.split(","))
        except ValueError as exc:
            raise UsageError("witness must be two integers c,d") from exc
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
    g = subgroup_from_json(_read_input(args.input, "subgroup"))
    header = ("point", "stab_order", "index")
    if not args.exhaustive:
        spec = degree_spectrum(g)
        rows = list(spec.as_rows()) + [("sl_index", "-", spec.sl_index)]
        payload = {
            "group_order": spec.group_order,
            "entries": {repr(p): idx for p, idx in spec.entries.items()},
            "sl_index": spec.sl_index,
        }
        _emit(args.format, payload, rows, header)
        return EXIT_OK
    # the indices come first: they check the cap before any part of the reply is built
    indices = exhaustive_indices(g)
    points, template, in_key_order = _exhaustive_reply(g.n)
    if args.format == "json":
        # json.dumps({"entries": {"c,d": index}, "group_order": order}, sort_keys=True)
        print(template % (*in_key_order(indices), g.order))
    else:
        rows = ((point, g.order // idx, idx) for point, idx in zip(points, indices))
        _emit(args.format, {}, rows, header)
    return EXIT_OK


def _cmd_sieve(args) -> int:
    primes = congruence_sieve(args.max)
    _emit(args.format, {"limit": args.max, "primes": primes}, [(p,) for p in primes], ("prime",))
    return EXIT_OK


def _cmd_bound(args) -> int:
    inp = FieldInput.from_json(_read_input(args.input, "field"))
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
    payload = {"modulus": args.modulus, "order": order}
    _emit(args.format, payload, [(args.modulus, order)], ("modulus", "order"))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    try:
        a, b, c, d = (int(x) for x in args.matrix.split(","))
    except ValueError as exc:
        raise UsageError("matrix must be four integers a,b,c,d") from exc
    word = decompose_sl2(Mat2(args.ell, a, b, c, d))
    payload = {
        "matrix": [a % args.ell, b % args.ell, c % args.ell, d % args.ell],
        "word": [[letter, exp] for letter, exp in word.letters],
        "length": len(word),
    }
    if args.format == "text":
        print(str(word))
    else:
        _emit(args.format, payload, word.letters, ("letter", "exponent"))
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
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:  # help was printed
            return EXIT_OK
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
