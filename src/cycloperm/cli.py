"""Command-line interface.

Subcommand groups: `cyclo` (cyclopermutohedron volume and lattice points),
`perm` (permutohedron), `linkage` (configuration-space invariants),
`forests` (counting utilities), and `verify` (cross-check suite).  Every
numeric result is exact: a rational coefficient plus an integer radicand
encoding coeff / sqrt(radicand); `approx` is a 12-significant-digit decimal
rendering.  Exit codes: 0 success, 2 invalid input, 3 verification failure.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .forests import NormalizedVolume, _Value

# Each runner imports the modules it calls, so a command loads only those
# (every route runs `forests`); `json` is imported by the JSON branches.


class ResultRecord(_Value):
    __slots__ = _fields = ("quantity", "coeff", "radicand", "method", "n")

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "coeff": str(self.coeff),
            "radicand": self.radicand,
            "approx": approx_string(self.coeff, self.radicand),
            "method": self.method,
            "n": self.n,
        }

    def to_text(self) -> str:
        d = self.to_dict()
        return (
            f"{d['quantity']} n={d['n']} method={d['method']} "
            f"coeff={d['coeff']} radicand={d['radicand']} approx={d['approx']}"
        )


def approx_string(coeff: Fraction, radicand: int) -> str:
    """Decimal rendering of coeff / sqrt(radicand) to 12 significant digits,
    without trailing zeros (integers print as integers)."""
    if coeff == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 30
        val = Decimal(coeff.numerator) / Decimal(coeff.denominator) / Decimal(radicand).sqrt()
    with localcontext() as ctx:
        ctx.prec = 12
        val = (+val).normalize()
    if abs(val.adjusted()) < 16:
        return format(val, "f")
    return format(val, "e")


# n = 300 takes under a second cold on every capped command (the most:
# linkage cells on 301 equal bars, 0.14-0.18 s and 16-21 MB, its Stirling
# rows growing as bars^2 big integers).
CLOSED_N_MAX = 300

# Largest bound on the steps of the subset-sum table behind every linkage
# command (linkage._table_bound) that the CLI accepts.  Near the cap, at
# 2.8 million steps (24 bars of 1 + 1/p over odd primes p, last bar 4),
# validation, profile and f-vector took 1.0-1.4 s and 173 MB on a 2-core
# machine; each further pairwise-coprime bar doubles that.
_LINKAGE_TABLE_CAP = 3_000_000


def _digit_limit() -> int:
    """Python's limit on the digits of an int-str conversion, or its
    default 4300 where the interpreter has none (PYTHONINTMAXSTRDIGITS=0,
    or Python 3.10.0-3.10.6)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(?:\.[0-9]+|/0*[1-9][0-9]*)?\s*", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """An integer, a decimal d+.d+ or a fraction d+/d+ with a nonzero
    denominator, in ASCII digits, with an optional sign and surrounding
    whitespace."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational number: {text!r}")
    limit = _digit_limit()
    if any(len(run) > limit for run in re.findall("[0-9]+", text)):
        raise ValueError(f"numeral has more than {limit} digits; too large to read")
    return Fraction(text)


def parse_lengths(text: str) -> list[Fraction]:
    """Comma-separated rationals; every field, an empty one too, must
    parse."""
    return [parse_rational(p) for p in text.split(",")]


def _record(quantity: str, value, method: str, n: int) -> ResultRecord:
    if isinstance(value, NormalizedVolume):
        return ResultRecord(quantity, value.coeff, value.radicand, method, n)
    return ResultRecord(quantity, Fraction(value), 1, method, n)


# The single-n routes: (group, sub, method) -> (module, function, largest n);
# the method is the record's label.  A brute row leaves its cap to the
# function, which refuses before any pass.
_ROUTES = {
    ("cyclo", "volume", "brute"): ("zonotope", "volume_bruteforce", None),
    ("cyclo", "volume", "forests"): ("zonotope", "volume_by_forests", CLOSED_N_MAX),
    ("cyclo", "volume", "closed"): ("zonotope", "volume_closed_form", None),
    ("cyclo", "points", "brute"): ("zonotope", "lattice_count_bruteforce", None),
    ("cyclo", "points", "closed"): ("zonotope", "lattice_count_closed_form", CLOSED_N_MAX),
    ("perm", "volume", "closed"): ("zonotope", "permutohedron_volume", CLOSED_N_MAX),
    ("perm", "points", "closed"): ("zonotope", "permutohedron_lattice_count", CLOSED_N_MAX),
    ("forests", "phi", "partition-sum"): ("forests", "forest_count", CLOSED_N_MAX),
    ("forests", "Phi", "partition-sum"): ("forests", "forest_gcd_sum", CLOSED_N_MAX),
}


def _closed_cap_error(n: int) -> ValueError:
    return ValueError(f"n={n} exceeds the cap n <= {CLOSED_N_MAX} of the closed and forest-sum routes")


def _run_route(args) -> list[ResultRecord]:
    module, function, cap = _ROUTES[args.group, args.sub, args.method]
    n = args.n
    if cap is not None and n > cap:
        raise _closed_cap_error(n)
    route = getattr(importlib.import_module(f".{module}", __package__), function)
    value = route(n, jobs=args.jobs) if args.method == "brute" else route(n)
    return [_record(f"{args.group}.{args.sub}", value, args.method, n)]


def _run_linkage(args) -> list[ResultRecord]:
    from . import linkage as linkage_mod

    lengths = parse_lengths(args.lengths)
    n = len(lengths) - 1
    if n > CLOSED_N_MAX:
        raise ValueError(f"n={n} (bars - 1) exceeds the cap n <= {CLOSED_N_MAX} of linkage {args.sub}")
    ints = linkage_mod._scaled_lengths(lengths)[1]  # the O(n) checks of validation name invalid lengths first
    if args.method == "forests" and n > (bound := importlib.import_module(".zonotope", __package__).BRUTE_MAX):
        raise ValueError(f"n={n} exceeds bound={bound}; use moduli_volume_theorem")
    if linkage_mod._table_bound(ints, _LINKAGE_TABLE_CAP) > _LINKAGE_TABLE_CAP:
        raise ValueError(
            f"the subset-sum table of these lengths may take more than {_LINKAGE_TABLE_CAP} steps, "
            "the cap of the linkage commands; use fewer bars or fewer distinct denominators"
        )
    spec = linkage_mod.validate(lengths)
    method = args.method
    if args.sub == "volume":
        if method == "forests":
            vol = linkage_mod.moduli_volume_forests(spec)
        else:
            vol = linkage_mod.moduli_volume_theorem(spec)
        return [_record("linkage.volume", vol, method, n)]
    if args.sub == "betti":
        return [
            _record(f"linkage.betti[{k}]", b, method, n)
            for k, b in enumerate(linkage_mod.betti_vector(spec))
        ]
    if args.sub == "aprofile":
        return [
            _record(f"linkage.a[{k}]", a, method, n)
            for k, a in enumerate(linkage_mod.a_profile(spec))
        ]
    fvec = linkage_mod.f_vector(spec)
    records = [_record(f"linkage.f[{k}]", f, method, n) for k, f in enumerate(fvec)]
    euler = sum((-1) ** k * f for k, f in enumerate(fvec))
    records.append(_record("linkage.euler", euler, method, n))
    return records


def _run_abel(args) -> list[ResultRecord]:
    from . import forests as forests_mod

    if args.n > CLOSED_N_MAX:
        raise _closed_cap_error(args.n)
    n, a, x = args.n, parse_rational(args.a), parse_rational(args.x)
    # in lowest terms x y^(n-1), y = x - a n, has a numerator of at least |num y|^(n-1)
    # / den x and a denominator of at least (den y)^(n-1) / |num x|; refuse before the
    # power when one exceeds 2^bits >= 10^limit (3.322 > log2(10)), else leave it to _render
    y, limit = x - a * n, _digit_limit()
    bits = max(
        (abs(y.numerator).bit_length() - 1) * (n - 1) - x.denominator.bit_length(),
        (y.denominator.bit_length() - 1) * (n - 1) - abs(x.numerator).bit_length(),
    )
    if x and bits * 1000 >= limit * 3322:
        raise ValueError(f"result has more than {limit} digits; too large to print")
    return [_record("forests.abel", forests_mod.abel_eval(n, a, x), "closed", n)]


def _render(records: list[ResultRecord], fmt: str) -> str:
    # an integer prints in at most `limit` digits iff it is below 10^limit; checked here
    # rather than left to str(), which has no limit under PYTHONINTMAXSTRDIGITS=0
    limit = _digit_limit()
    if any(max(abs(r.coeff.numerator), r.coeff.denominator, r.radicand, r.n) >= 10**limit for r in records):
        raise ValueError(f"result has more than {limit} digits; too large to print")
    if fmt == "json":
        import json

        payload = [r.to_dict() for r in records]
        return json.dumps(payload[0] if len(payload) == 1 else payload)
    return "\n".join(r.to_text() for r in records)


def _run_verify(args) -> int:
    if args.n_max > CLOSED_N_MAX:
        raise ValueError(f"n_max={args.n_max} exceeds the cap n_max <= {CLOSED_N_MAX} of verify")
    from . import verification

    results = verification.run_all(args.n_max, jobs=args.jobs)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        import json

        print(json.dumps([{"check": r.name, "passed": r.passed, "detail": r.detail} for r in results]))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        if failed:
            print(f"{len(failed)} of {len(results)} checks failed")
        else:
            print(f"all {len(results)} checks passed")
    return 3 if failed else 0


_COUNT = re.compile(r"\s*[0-9]+\s*", re.ASCII)


def _count(text: str) -> int:
    """argparse type of --n and --n-max: ASCII digits with optional
    surrounding whitespace."""
    if not _COUNT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer in ASCII digits, got {text!r}")
    return int(text)


def _jobs(text: str) -> int:
    """argparse type of --jobs: an integer N >= 1 in ASCII digits."""
    if not _COUNT.fullmatch(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer N >= 1, got {text!r}")
    return int(text)


# argparse reads -1 and -1.5 as values but -1/3 and -1,2,3 as options; no option
# here starts with "-" and a digit, so every command reads all as values.
_NEGATIVE_VALUE = re.compile(r"-[0-9]")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that hands every token of "-" and a digit to the option
    before it, so its type function names what is wrong.  Subparsers are
    built from the class of their parent, so every command gets it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cycloperm",
        description="Exact volumes, lattice counts, and linkage invariants.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    pool = argparse.ArgumentParser(add_help=False)  # the commands that can run a brute scan
    pool.add_argument(
        "--jobs", type=_jobs, default=1, help="N >= 1, validated but without effect: the brute pass runs in one process"
    )
    groups = parser.add_subparsers(dest="group", required=True)

    cyclo = groups.add_parser("cyclo", help="cyclopermutohedron").add_subparsers(
        dest="sub", required=True
    )
    cv = cyclo.add_parser("volume", parents=[common, pool], help="signed volume")
    cv.add_argument("--n", type=_count, required=True)
    cv.add_argument(
        "--method",
        choices=("brute", "forests", "closed"),
        default="forests",
        help="brute: alternating determinant sum; forests: grouped forest sum (default); "
        "closed: 0 for n >= 3, -2/sqrt(2) at n = 2",
    )
    cp = cyclo.add_parser("points", parents=[common, pool], help="signed lattice-point count")
    cp.add_argument("--n", type=_count, required=True)
    cp.add_argument("--method", choices=("brute", "closed"), default="closed")

    perm = groups.add_parser("perm", help="permutohedron").add_subparsers(dest="sub", required=True)
    for sub in ("volume", "points"):
        p = perm.add_parser(sub, parents=[common])
        p.add_argument("--n", type=_count, required=True)
        p.set_defaults(method="closed")

    link = groups.add_parser("linkage", help="polygonal linkage configuration space").add_subparsers(
        dest="sub", required=True
    )
    lv = link.add_parser("volume", parents=[common])
    lv.add_argument("--lengths", required=True, help="comma-separated bar lengths, longest last")
    lv.add_argument("--method", choices=("theorem", "forests"), default="theorem")
    for sub, method in (("betti", "a-profile"), ("cells", "cell-complex"), ("aprofile", "short-sets")):
        lp = link.add_parser(sub, parents=[common])
        lp.add_argument("--lengths", required=True, help="comma-separated bar lengths, longest last")
        lp.set_defaults(method=method)

    fo = groups.add_parser("forests", help="forest counting utilities").add_subparsers(
        dest="sub", required=True
    )
    for sub in ("phi", "Phi"):
        fp = fo.add_parser(sub, parents=[common])
        fp.add_argument("--n", type=_count, required=True)
        fp.set_defaults(method="partition-sum")
    fa = fo.add_parser("abel", parents=[common])
    fa.add_argument("--n", type=_count, required=True)
    fa.add_argument("--a", required=True, help="rational parameter a")
    fa.add_argument("--x", required=True, help="rational evaluation point x")

    ver = groups.add_parser("verify", parents=[common, pool], help="run the cross-check suite")
    ver.add_argument("--n-max", type=_count, default=5, dest="n_max")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.group == "verify":
            return _run_verify(args)
        if args.group == "linkage":
            records = _run_linkage(args)
        elif args.sub == "abel":
            records = _run_abel(args)
        else:
            records = _run_route(args)
        text = _render(records, args.format)
    except ValueError as exc:  # includes LinkageError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
