from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloperm import cli, forests, linkage, verification, zonotope
from cycloperm.cli import _ROUTES, approx_string, parse_lengths, parse_rational, run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" 1.2 ") == Fraction(6, 5)
    assert parse_rational("7") == 7
    assert parse_rational("-2/3") == Fraction(-2, 3)
    with pytest.raises(ValueError):
        parse_rational("abc")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    for text in ("1_0", "\u0661", "1e3", ".5", "5.", "1 / 2", "- 1", "0x10", "\u20031"):
        with pytest.raises(ValueError):
            parse_rational(text)


def _digits(part: str) -> bool:
    return part != "" and all(c in "0123456789" for c in part)


def _in_grammar(text: str) -> bool:
    """The README grammar, spelled out without a regular expression."""
    body = text.strip(" \t\n\r\f\v")
    if body[:1] in ("+", "-"):
        body = body[1:]
    for sep in "./":
        if sep in body:
            head, _, tail = body.partition(sep)
            return _digits(head) and _digits(tail)
    return _digits(body)


_SPACE = st.text(alphabet=" \t\n", max_size=2)
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=6)
_GRAMMAR = st.tuples(
    _SPACE,
    st.sampled_from(["", "+", "-"]),
    _DIGITS,
    st.sampled_from(["", ".", "/"]),
    _DIGITS,
    _SPACE,
).map(lambda p: p[0] + p[1] + p[2] + (p[3] + p[4] if p[3] else "") + p[5])
_NEAR_MISSES = st.text(alphabet="0123456789+-./_ e\t\u0661\u00b2x", max_size=8)


@given(st.one_of(_GRAMMAR, _NEAR_MISSES))
def test_parse_rational_accepts_exactly_the_grammar(text):
    try:
        expected = Fraction(text) if _in_grammar(text) else None
    except ZeroDivisionError:
        expected = None
    if expected is None:
        with pytest.raises(ValueError):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


@settings(deadline=None)
@given(_GRAMMAR, _GRAMMAR)
def test_grammar_values_reach_the_parsers(a, x):
    # a value of the grammar given as its own token, a leading "-" included,
    # reaches parse_rational or parse_lengths rather than argparse's option
    # matching (which took -1/3 and -1,2,3 for options)
    seen = []

    def lengths(text):
        seen.append(text)
        raise _Called

    with pytest.MonkeyPatch.context() as patched, contextlib.redirect_stdout(io.StringIO()):
        patched.setattr(cli, "parse_rational", lambda text: seen.append(text) or Fraction(1))
        patched.setattr(cli, "parse_lengths", lengths)
        assert run(["forests", "abel", "--n", "3", "--a", a, "--x", x]) == 0
        for sub in ("volume", "betti", "cells", "aprofile"):
            with pytest.raises(_Called):
                run(["linkage", sub, "--lengths", a + "," + x])
    assert seen == [a, x] + [a + "," + x] * 4


def test_negative_values_as_separate_tokens(capsys):
    argv = ["forests", "abel", "--n", "3", "--a", "1", "--x", "-1/2"]
    assert _capture(capsys, argv) == (0, "forests.abel n=3 method=closed coeff=-49/8 radicand=1 approx=-6.125\n", "")
    joined = _capture(capsys, ["forests", "abel", "--n", "12", "--a=-1/3", "--x", "5/7"])
    assert _capture(capsys, ["forests", "abel", "--n", "12", "--a", "-1/3", "--x", "5/7"]) == joined
    assert joined[0] == 0
    for sub in ("volume", "betti", "cells", "aprofile"):
        argv = ["linkage", sub, "--lengths", "-1,2,3"]
        assert _capture(capsys, argv) == (2, "", "error: bar lengths must be positive\n")


def _leaf_parsers(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    # (command words, parser) of every command that parses options itself
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, path + (name,))
            return
    yield path, parser


def test_negative_counts_reach_the_type_functions(capsys):
    # argparse read -1/3 and -1,2 given to a count option as options and exited 2 with
    # "expected one argument"; every count option must pass them to _count or _jobs
    required = {"--n": "3", "--a": "1", "--x": "2", "--lengths": "1,1,1"}
    seen = set()
    for path, parser in _leaf_parsers(cli.build_parser()):
        for action in parser._actions:
            if action.type not in (cli._count, cli._jobs):
                continue
            option = action.option_strings[0]
            seen.add((path, option))
            others = [
                word for other in parser._actions if other.required and other is not action
                for word in (other.option_strings[0], required[other.option_strings[0]])
            ]
            for token in ("-1/3", "-1,2", "-1"):
                with pytest.raises(argparse.ArgumentTypeError) as reason:
                    action.type(token)
                code, out, err = _capture(capsys, [*path, *others, option, token])
                assert (code, out) == (2, "")
                assert err.endswith(f": error: argument {option}: {reason.value}\n")
    assert len(seen) == 11  # --n of seven commands, --jobs of three, --n-max of verify


def test_parse_lengths():
    assert parse_lengths("1.2,1,1,0.8,2.2") == [
        Fraction(6, 5),
        Fraction(1),
        Fraction(1),
        Fraction(4, 5),
        Fraction(11, 5),
    ]
    with pytest.raises(ValueError):
        parse_lengths(",,")


def test_approx_string():
    assert approx_string(Fraction(28), 4) == "14"
    assert approx_string(Fraction(0), 5) == "0"
    assert approx_string(Fraction(-2), 2) == "-1.41421356237"
    assert approx_string(Fraction(9), 3) == "5.19615242271"
    assert approx_string(Fraction(1, 3), 1) == "0.333333333333"
    assert approx_string(Fraction(10 ** 40), 1) == "1e+40"


GOLDEN = [
    (
        ["cyclo", "points", "--n", "4", "--method", "closed", "--format", "json"],
        '{"quantity": "cyclo.points", "coeff": "18", "radicand": 1, "approx": "18", "method": "closed", "n": 4}\n',
    ),
    (
        ["cyclo", "volume", "--n", "5", "--method", "forests", "--format", "json"],
        '{"quantity": "cyclo.volume", "coeff": "0", "radicand": 5, "approx": "0", "method": "forests", "n": 5}\n',
    ),
    (
        ["linkage", "volume", "--lengths", "1.2,1,1,0.8,2.2", "--format", "json"],
        '{"quantity": "linkage.volume", "coeff": "28", "radicand": 4, "approx": "14", "method": "theorem", "n": 4}\n',
    ),
    (
        ["cyclo", "points", "--n", "4", "--method", "closed"],
        "cyclo.points n=4 method=closed coeff=18 radicand=1 approx=18\n",
    ),
    (
        ["linkage", "volume", "--lengths", "1.2,1,1,0.8,2.2"],
        "linkage.volume n=4 method=theorem coeff=28 radicand=4 approx=14\n",
    ),
    (
        ["linkage", "volume", "--lengths", "1.2,1,1,0.8,2.2", "--method", "forests"],
        "linkage.volume n=4 method=forests coeff=28 radicand=4 approx=14\n",
    ),
    (
        ["linkage", "volume", "--lengths", "1.2,1,1,0.8,2.2", "--method", "forests", "--format", "json"],
        '{"quantity": "linkage.volume", "coeff": "28", "radicand": 4, "approx": "14", "method": "forests", "n": 4}\n',
    ),
]


def test_golden_outputs(capsys):
    for argv, expected in GOLDEN:
        code, out, err = _capture(capsys, argv)
        assert code == 0
        assert err == ""
        assert out == expected


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, stdout lines) of every `$ cycloperm ...` example in README.md.
    A JSON array that the README wraps at record boundaries is joined back
    onto one line, as the CLI prints it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"```\n(.*?)```", text, flags=re.S):
        for example in block.split("$ cycloperm ")[1:]:
            command, *lines = example.strip().splitlines()
            examples.append((command.split(), ["".join(lines)] if lines[0].startswith("[") else lines))
    return examples


_README = _readme_examples()


@pytest.mark.parametrize("argv, lines", _README, ids=[" ".join(argv) for argv, _ in _README])
def test_readme_examples(capsys, argv, lines):
    code, out, err = _capture(capsys, argv)
    assert (code, err) == (0, "")
    if argv[0] == "verify":  # the README shows the first and the last line
        first, *_, last = out.splitlines()
        out, lines = f"{first}\n{last}\n", [lines[0], lines[-1]]
    assert out == "\n".join(lines) + "\n"


def test_output_byte_stable(capsys):
    for argv, _ in GOLDEN:
        _, first, _ = _capture(capsys, argv)
        _, second, _ = _capture(capsys, argv)
        assert first == second


def test_volume_methods_agree(capsys):
    outputs = []
    for method in ("brute", "forests", "closed"):
        code, out, _ = _capture(
            capsys, ["cyclo", "volume", "--n", "4", "--method", method, "--format", "json"]
        )
        assert code == 0
        outputs.append(json.loads(out))
    assert len({(o["coeff"], o["radicand"]) for o in outputs}) == 1


def test_points_methods_agree(capsys):
    for n in ("3", "4"):
        records = []
        for method in ("brute", "closed"):
            code, out, _ = _capture(
                capsys, ["cyclo", "points", "--n", n, "--method", method, "--format", "json"]
            )
            assert code == 0
            records.append(json.loads(out)["coeff"])
        assert records[0] == records[1]


def test_jobs_flag(capsys):
    # --jobs is a cap on workers and leaves the record as it is; the forest sum stands in for
    # the brute run without the flag
    para = _capture(capsys, ["cyclo", "volume", "--n", "5", "--method", "brute", "--jobs", "2"])
    base = _capture(capsys, ["cyclo", "volume", "--n", "5", "--method", "forests"])
    assert base[0] == para[0] == 0
    assert base[1].replace("method=forests", "method=brute") == para[1]


def test_jobs_below_one_rejected(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started despite an invalid --jobs")

    monkeypatch.setattr(zonotope, "volume_bruteforce", no_work)
    monkeypatch.setattr(zonotope, "lattice_count_closed_form", no_work)
    monkeypatch.setattr(zonotope, "permutohedron_lattice_count", no_work)
    monkeypatch.setattr(verification, "run_all", no_work)
    cases = [
        (argv + ["--jobs", jobs], "--jobs: must be an integer N >= 1")
        for jobs in ("0", "-1", "\u0661")
        for argv in (["cyclo", "volume", "--n", "5", "--method", "brute"], ["verify"])
    ]
    cases += [
        (["verify", "--n-max", "\u0662", "--jobs", "\u0662"], "--n-max: must be a non-negative integer"),
        (["cyclo", "points", "--n", "\u0664"], "--n: must be a non-negative integer"),
        (["perm", "points", "--n", "1_0"], "--n: must be a non-negative integer"),
    ]
    for argv, reason in cases:
        code, out, err = _capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert reason in err


def test_jobs_only_where_a_pool_can_run(capsys, monkeypatch):
    monkeypatch.setattr(linkage, "validate", lambda lengths: pytest.fail("validation started"))
    monkeypatch.setattr(forests, "forest_count", lambda n: pytest.fail("work started"))
    monkeypatch.setattr(zonotope, "permutohedron_volume", lambda n: pytest.fail("work started"))
    for argv in (
        ["perm", "volume", "--n", "3"],
        ["linkage", "betti", "--lengths", "1,1,1,1,3.5"],
        ["forests", "phi", "--n", "5"],
    ):
        code, out, err = _capture(capsys, argv + ["--jobs", "2"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --jobs 2" in err
    monkeypatch.undo()
    for argv in (["cyclo", "volume", "--n", "4"], ["cyclo", "points", "--n", "4"], ["verify", "--n-max", "2"]):
        assert _capture(capsys, argv + ["--jobs", "2"])[0] == 0


class _Called(Exception):
    pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_ROUTES)), st.one_of(st.integers(0, 9), st.integers(295, 305), st.integers(0, 400)))
def test_closed_routes_capped(key, n):
    # every row of the route table: n past the row's cap exits 2 before the route runs, and n
    # within it calls the route once with n; a brute row leaves the cap to the function, which
    # refuses n outside 2..BRUTE_MAX before the pass, and only a brute row gets --jobs
    group, sub, method = key
    module, function, cap = _ROUTES[key]
    # uncapped: the brute rows and the closed volume, 0 for n >= 3
    assert cap == (None if method == "brute" or key == ("cyclo", "volume", "closed") else 300)
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Called

    argv = [group, sub, "--n", str(n)] + (["--method", method, "--jobs", "2"] if group == "cyclo" else [])
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patched, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if method == "brute":
            patched.setattr(zonotope, "_brute_sums", record)
            within = 2 <= n <= zonotope.BRUTE_MAX
        else:
            patched.setattr(importlib.import_module(f"cycloperm.{module}"), function, record)
            within = cap is None or n <= cap
        if within:
            with pytest.raises(_Called):
                run(argv)
        else:
            assert run(argv) == 2
    if not within:
        assert (out.getvalue(), calls) == ("", [])
        if method != "brute":
            assert err.getvalue() == f"error: n={n} exceeds the cap n <= {cap} of the closed and forest-sum routes\n"
    elif method == "brute":
        assert calls == [((n, 2), {})]
    else:
        assert calls == [((n,), {})]


def test_abel_capped_and_phi_at_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(forests, "abel_eval", lambda n, a, x: pytest.fail("abel_eval started"))
    code, out, err = _capture(capsys, ["forests", "abel", "--a", "1", "--x", "1", "--n", "301"])
    assert (code, out) == (2, "")
    assert err == "error: n=301 exceeds the cap n <= 300 of the closed and forest-sum routes\n"
    monkeypatch.undo()
    code, out, _ = _capture(capsys, ["forests", "phi", "--n", "300"])
    assert code == 0
    assert out.startswith("forests.phi n=300 method=partition-sum coeff=2528667035989008")


def test_perm_commands(capsys):
    code, out, _ = _capture(capsys, ["perm", "volume", "--n", "3", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert (rec["coeff"], rec["radicand"], rec["approx"]) == ("9", 3, "5.19615242271")
    code, out, _ = _capture(capsys, ["perm", "points", "--n", "4", "--format", "json"])
    assert json.loads(out)["coeff"] == "38"


def test_linkage_betti_and_profile(capsys):
    code, out, _ = _capture(
        capsys, ["linkage", "betti", "--lengths", "1,1,1,1,1", "--format", "json"]
    )
    assert code == 0
    assert [r["coeff"] for r in json.loads(out)] == ["1", "8", "1"]
    code, out, _ = _capture(
        capsys, ["linkage", "aprofile", "--lengths", "1,1,1,1,1", "--format", "json"]
    )
    assert [r["coeff"] for r in json.loads(out)] == ["1", "4", "0", "0", "0"]


def test_linkage_cells(capsys):
    code, out, _ = _capture(
        capsys, ["linkage", "cells", "--lengths", "1,1,1,1,3.5", "--format", "json"]
    )
    assert code == 0
    records = json.loads(out)
    assert [r["coeff"] for r in records if r["quantity"].startswith("linkage.f")] == [
        "24",
        "36",
        "14",
    ]
    assert records[-1]["quantity"] == "linkage.euler"
    assert records[-1]["coeff"] == "2"


def test_linkage_cells_uncapped(capsys):
    # 23 bars: equilateral, and random rationals over denominators up to 10
    rng = random.Random(23)
    while True:
        lengths = sorted(Fraction(rng.randrange(1, 20), rng.randrange(1, 11)) for _ in range(23))
        try:
            linkage.validate(lengths)
            break
        except linkage.LinkageError:
            continue
    for text in (",".join(["1"] * 23), ",".join(str(x) for x in lengths)):
        code, out, _ = _capture(capsys, ["linkage", "cells", "--lengths", text, "--format", "json"])
        assert code == 0
        records = json.loads(out)
        assert [r["quantity"] for r in records] == [f"linkage.f[{k}]" for k in range(21)] + ["linkage.euler"]
        code, out, _ = _capture(capsys, ["linkage", "betti", "--lengths", text, "--format", "json"])
        assert code == 0
        betti = [int(r["coeff"]) for r in json.loads(out)]
        assert int(records[-1]["coeff"]) == sum((-1) ** k * x for k, x in enumerate(betti))
    code, out, _ = _capture(capsys, ["linkage", "cells", "--lengths", ",".join(["1"] * 13)])
    assert out.splitlines()[-1] == "linkage.euler n=12 method=cell-complex coeff=-924 radicand=1 approx=-924"


def test_linkage_table_budget_refuses_before_validation(capsys, monkeypatch):
    # 25 bars 1 + 1/p over the odd primes p up to 101 and a last bar 5/2:
    # pairwise-coprime denominators, so about 2^25 distinct subset sums
    primes = [p for p in range(3, 102, 2) if all(p % q for q in range(3, p, 2))]
    text = ",".join(str(1 + Fraction(1, p)) for p in primes) + ",5/2"
    assert len(primes) == 25
    monkeypatch.setattr(linkage, "validate", lambda lengths: pytest.fail("validation started"))
    for sub in ("volume", "betti", "aprofile", "cells"):
        start = time.perf_counter()
        code, out, err = _capture(capsys, ["linkage", sub, "--lengths", text])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "may take more than 3000000 steps, the cap of the linkage commands" in err


def test_invalid_lengths_named_before_the_table_budget(capsys, monkeypatch):
    # past the budget as lengths, but the O(n) checks of validation fail first
    primes = [p for p in range(3, 102, 2) if all(p % q for q in range(3, p, 2))]
    bars = [str(1 + Fraction(1, p)) for p in primes]
    monkeypatch.setattr(linkage, "_table_bound", lambda ints, cap: pytest.fail("table bound started"))
    for text, reason in (
        (",".join(bars[:12] + ["0"] + bars[12:]) + ",5/2", "bar lengths must be positive"),
        (",".join(bars[:12] + ["-1"] + bars[12:]) + ",5/2", "bar lengths must be positive"),
        (",".join(bars[:24]) + ",9,1", "longest bar must be listed last"),
    ):
        assert _capture(capsys, ["linkage", "betti", "--lengths", text]) == (2, "", f"error: {reason}\n")


def test_triangle_violation_named_before_the_table_budget(capsys, monkeypatch):
    # 299 bars over distinct 200-digit denominators and a last bar longer
    # than all of them together: the O(n) triangle check answers
    bars = [f"1/{10**199 + i}" for i in reversed(range(299))]
    monkeypatch.setattr(linkage, "_table_bound", lambda ints, cap: pytest.fail("table bound started"))
    for sub in ("volume", "cells"):
        argv = ["linkage", sub, "--lengths", ",".join(bars + ["1"])]
        assert _capture(capsys, argv) == (2, "", "error: longest bar is at least half the perimeter\n")


def test_forest_route_bound_refused_before_the_table(capsys, monkeypatch):
    # the forest route reads the brute pass: it answers as the theorem does
    # up to BRUTE_MAX, and past it no table is built
    argv = ["linkage", "volume", "--lengths", ",".join(["1"] * 17)]
    code, out, _ = _capture(capsys, argv)
    assert (code, "coeff=-791125641446080512 " in out) == (0, True)
    assert _capture(capsys, argv + ["--method", "forests"]) == (0, out.replace("=theorem", "=forests"), "")
    monkeypatch.setattr(linkage, "_table_bound", lambda ints, cap: pytest.fail("table bound started"))
    monkeypatch.setattr(linkage, "validate", lambda lengths: pytest.fail("validation started"))
    argv = ["linkage", "volume", "--lengths", ",".join(["1"] * 17 + ["2"]), "--method", "forests"]
    assert _capture(capsys, argv) == (2, "", "error: n=17 exceeds bound=16; use moduli_volume_theorem\n")


def test_linkage_cells_bar_cap(capsys, monkeypatch):
    code, out, _ = _capture(capsys, ["linkage", "cells", "--lengths", ",".join(["1"] * 301)])
    assert code == 0
    assert out.splitlines()[-1].startswith("linkage.euler n=300 ")
    monkeypatch.setattr(linkage, "validate", lambda lengths: pytest.fail("validation started"))
    code, out, err = _capture(capsys, ["linkage", "cells", "--lengths", ",".join(["1"] * 302)])
    assert (code, out) == (2, "")
    assert err == "error: n=301 (bars - 1) exceeds the cap n <= 300 of linkage cells\n"


def test_linkage_bar_cap_on_every_subcommand(capsys, monkeypatch):
    code, out, _ = _capture(capsys, ["linkage", "volume", "--lengths", ",".join(["1"] * 301)])
    assert code == 0
    assert out.startswith("linkage.volume n=300 method=theorem ")
    monkeypatch.setattr(linkage, "_table_bound", lambda ints, cap: pytest.fail("table bound started"))
    for sub in ("volume", "betti", "aprofile", "cells"):
        code, out, err = _capture(capsys, ["linkage", sub, "--lengths", ",".join(["1"] * 302)])
        assert (code, out) == (2, "")
        assert err == f"error: n=301 (bars - 1) exceeds the cap n <= 300 of linkage {sub}\n"


def test_forests_commands(capsys):
    assert _capture(capsys, ["forests", "phi", "--n", "4", "--format", "json"])[1] == (
        '{"quantity": "forests.phi", "coeff": "38", "radicand": 1, "approx": "38", '
        '"method": "partition-sum", "n": 4}\n'
    )
    code, out, _ = _capture(capsys, ["forests", "Phi", "--n", "3", "--format", "json"])
    assert json.loads(out)["coeff"] == "13"
    code, out, _ = _capture(
        capsys, ["forests", "abel", "--n", "3", "--a", "-1", "--x", "1/2", "--format", "json"]
    )
    rec = json.loads(out)
    assert rec["coeff"] == "49/8"
    assert rec["approx"] == "6.125"


def test_exact_coefficients_round_trip(capsys):
    code, out, _ = _capture(
        capsys, ["linkage", "volume", "--lengths", "1,1,1,1,1", "--format", "json"]
    )
    rec = json.loads(out)
    assert Fraction(rec["coeff"]) == Fraction(-80)
    assert rec["radicand"] == 4


def test_validation_exit_codes(capsys):
    assert _capture(capsys, ["linkage", "volume", "--lengths", "1,1,2"])[0] == 2
    assert _capture(capsys, ["cyclo", "volume", "--n", "1"])[0] == 2
    assert _capture(capsys, ["cyclo", "points", "--n", str(zonotope.BRUTE_MAX + 1), "--method", "brute"])[0] == 2
    assert _capture(capsys, ["linkage", "volume", "--lengths", "1,abc"])[0] == 2
    # every field must be a length: an empty one is not skipped
    for text in ("1,,1", "1,1,1,", ",", "", "1,,1,1,"):
        argv = ["linkage", "volume", "--lengths", text]
        assert _capture(capsys, argv) == (2, "", "error: not a rational number: ''\n")
    # the forest route's bar cap, and run_all's guard
    argv = ["linkage", "volume", "--lengths", ",".join(["1"] * 17 + ["2"]), "--method", "forests"]
    assert _capture(capsys, argv) == (2, "", "error: n=17 exceeds bound=16; use moduli_volume_theorem\n")
    assert _capture(capsys, ["verify", "--n-max", "1"]) == (2, "", "error: n_max must be at least 2\n")
    # argparse-level failures also exit 2
    assert run(["cyclo", "volume"]) == 2
    assert run(["bogus"]) == 2
    assert run(["--help"]) == 0


def test_validation_error_messages(capsys):
    code, out, err = _capture(capsys, ["linkage", "volume", "--lengths", "1,1,2"])
    assert code == 2
    assert out == ""
    assert "half the perimeter" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_unprintable_result_exits_2(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default limit
    try:
        argv = ["forests", "abel", "--n", "300", "--a", "1/123456789123456789", "--x", "1/7"]
        code, out, err = _capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: result has more than 4300 digits; too large to print\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_unprintable_abel_refused_before_the_work(capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default limit
    message = "error: result has more than 4300 digits; too large to print\n"
    try:
        # about 1.2 million digits: the bit lengths refuse it before abel_eval runs
        with monkeypatch.context() as patched:
            patched.setattr(forests, "abel_eval", lambda n, a, x: pytest.fail("abel_eval started"))
            argv = ["forests", "abel", "--n", "300", "--a", "1/" + "7" * 4000, "--x", "1/7"]
            assert _capture(capsys, argv) == (2, "", message)
        # 10^4300, 4301 digits: under the bit-length bound, so _render refuses it
        argv = ["forests", "abel", "--n", "2", "--a=-" + "9" * 4300 + "/2", "--x", "1"]
        assert _capture(capsys, argv) == (2, "", message)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize(
    "argv",
    [
        ["linkage", "volume", "--lengths", "1,1,1." + "1" * 4301],
        ["forests", "abel", "--n", "3", "--a", "1/" + "1" * 4301, "--x", "1"],
        ["forests", "abel", "--n", "3", "--a", "1", "--x", "1" * 4301],
    ],
    ids=["lengths", "a", "x"],
)
def test_unreadable_numeral_exits_2(capsys, argv):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default limit
    try:
        code, out, err = _capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: numeral has more than 4300 digits; too large to read\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("no_limit", ["zero", "absent"])
def test_digit_cap_without_an_interpreter_limit(capsys, monkeypatch, no_limit):
    # no limit: PYTHONINTMAXSTRDIGITS=0 reports 0; Python 3.10.0-3.10.6 has no get_int_max_str_digits
    unprintable = "error: result has more than 4300 digits; too large to print\n"
    previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if previous:
        sys.set_int_max_str_digits(0)
    if no_limit == "absent":
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    try:
        # 10^4300, 4301 digits: under the bit-length bound, so the render check refuses it
        argv = ["forests", "abel", "--n", "2", "--a=-" + "9" * 4300 + "/2", "--x", "1"]
        assert _capture(capsys, argv) == (2, "", unprintable)
        with monkeypatch.context() as patched:
            patched.setattr(forests, "abel_eval", lambda n, a, x: pytest.fail("abel_eval started"))
            argv = ["forests", "abel", "--n", "300", "--a", "1/" + "7" * 4000, "--x", "1/7"]
            assert _capture(capsys, argv) == (2, "", unprintable)
        argv = ["linkage", "volume", "--lengths", "1,1,1." + "1" * 5000]
        assert _capture(capsys, argv) == (2, "", "error: numeral has more than 4300 digits; too large to read\n")
    finally:
        if previous:
            sys.set_int_max_str_digits(previous)


def test_verify_ok(capsys):
    code, out, _ = _capture(capsys, ["verify", "--n-max", "3", "--format", "json"])
    assert code == 0
    results = json.loads(out)
    assert all(r["passed"] for r in results)
    assert [r["check"] for r in results] == [name for name, _ in verification._CHECKS]


def test_verify_text_output(capsys):
    code, out, _ = _capture(capsys, ["verify", "--n-max", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_n_max_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(verification, "run_all", lambda n_max, jobs=1: pytest.fail("a check ran"))
    code, out, err = _capture(capsys, ["verify", "--n-max", "301"])
    assert (code, out) == (2, "")
    assert err == "error: n_max=301 exceeds the cap n_max <= 300 of verify\n"


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        verification, "run_all", lambda n_max, jobs=1: [verification.CheckResult("x", False, "boom")]
    )
    code, out, _ = _capture(capsys, ["verify"])
    assert code == 3
    assert "FAIL x: boom" in out


_LAZY_PROBE = """
import sys

before = set(sys.modules)


def loaded():
    return {m for m in sys.modules if m.startswith("cycloperm.")}


def new(*names):
    return {m for m in names if m in sys.modules and m not in before}


import cycloperm
assert loaded() == set(), loaded()
import contextlib, io
import cycloperm.cli


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cycloperm.cli.run(list(argv)) == 0, argv
    assert not new("dataclasses", "inspect"), (argv, new("dataclasses", "inspect"))


run("forests", "phi", "--n", "5")
run("forests", "abel", "--n", "3", "--a", "-1", "--x", "1/2")
assert loaded() == {"cycloperm.cli", "cycloperm.forests"}, loaded()
for sub in ("volume", "betti", "cells"):
    run("linkage", sub, "--lengths", "1.2,1,1,0.8,2.2")
assert loaded() == {"cycloperm.cli", "cycloperm.forests", "cycloperm.linkage"}, loaded()
run("cyclo", "volume", "--n", "2", "--method", "brute")
run("cyclo", "volume", "--n", "4")
run("cyclo", "points", "--n", "4")
run("perm", "volume", "--n", "3")
run("perm", "points", "--n", "5")
assert not loaded() & {"cycloperm.intlin", "cycloperm.oracle", "cycloperm.verification"}, loaded()
run("verify", "--n-max", "2")
assert not new("json"), "a text-format run loaded json"
run("linkage", "betti", "--lengths", "1,1,1,1,3.5", "--format", "json")
run("linkage", "volume", "--lengths", "1.2,1,1,0.8,2.2", "--method", "forests")
namespace = {}
exec("from cycloperm import *", namespace)
missing = [name for name in cycloperm.__all__ if name not in namespace]
assert not missing, missing
assert set(cycloperm.__all__) <= set(dir(cycloperm))
"""


def test_package_and_cli_load_modules_lazily():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
