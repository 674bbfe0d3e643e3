"""Write reference.json: the seed code's answers plus the CLI golden output.

    PYTHONPATH=src python3 perfbench/make_reference.py

run from the repository root.  Numeric entries are computed by the
cycloperm routes the workloads time, then checked against
workloads.expected_values() (paper values and the exponential-formula
recurrence), so a table that disagrees is never written.  CLI golden output
is taken from the README examples in both formats: the README shows each
example in one format, and the other is the same records in the fixed
field order.  A JSON array that the README wraps at record boundaries is
joined back onto one line, as the CLI prints it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("quantity", "coeff", "radicand", "approx", "method", "n")
TEXT_RECORD = re.compile(
    r"(?P<quantity>\S+) n=(?P<n>-?\d+) method=(?P<method>\S+) coeff=(?P<coeff>\S+) "
    r"radicand=(?P<radicand>\d+) approx=(?P<approx>\S+)"
)


def readme_examples(text: str) -> list[tuple[list[str], str]]:
    """(argv, stdout) for every `$ cycloperm ...` example with its output."""
    examples = []
    for block in re.findall(r"```\n(.*?)```", text, flags=re.S):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            if not lines[i].startswith("$ cycloperm "):
                i += 1
                continue
            argv = lines[i][len("$ cycloperm "):].split()
            i += 1
            output = []
            while i < len(lines) and lines[i] and not lines[i].startswith("$ "):
                output.append(lines[i])
                i += 1
            if argv[0] != "verify":  # the README elides verify output
                joined = "".join(output) if output[0].startswith("[") else "\n".join(output)
                examples.append((argv, joined + "\n"))
    return examples


def records_from_output(argv: list[str], stdout: str) -> list[dict]:
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        payload = json.loads(stdout)
        return payload if isinstance(payload, list) else [payload]
    records = []
    for line in stdout.splitlines():
        m = TEXT_RECORD.fullmatch(line)
        if m is None:
            raise ValueError(f"not a text record: {line!r}")
        records.append(
            {k: int(m[k]) if k in ("radicand", "n") else m[k] for k in FIELDS}
        )
    return records


def render(records: list[dict], fmt: str) -> str:
    if fmt == "json":
        payload = [{k: r[k] for k in FIELDS} for r in records]
        return json.dumps(payload[0] if len(payload) == 1 else payload) + "\n"
    return "".join(
        f"{r['quantity']} n={r['n']} method={r['method']} coeff={r['coeff']} "
        f"radicand={r['radicand']} approx={r['approx']}\n"
        for r in records
    )


def golden_cli() -> list[dict]:
    golden = []
    for argv, stdout in readme_examples((ROOT / "README.md").read_text()):
        records = records_from_output(argv, stdout)
        base = list(argv)
        if "--format" in base:
            at = base.index("--format")
            del base[at:at + 2]
        for fmt in ("text", "json"):
            golden.append({"argv": base + ["--format", fmt], "stdout": render(records, fmt)})
    return golden


def seed_values() -> dict:
    import importlib

    values = {}
    for fn, derived in workloads.expected_values().items():
        module_name, fn_name = fn.split(".")
        route = getattr(importlib.import_module(f"cycloperm.{module_name}"), fn_name)
        values[fn] = {}
        for n in derived:
            result = route(n)
            if hasattr(result, "radicand"):
                result = {"coeff": str(result.coeff), "radicand": result.radicand}
            values[fn][str(n)] = result
            print(f"{fn}({n}) = {result}", file=sys.stderr)
    return values


def main() -> int:
    values = seed_values()
    workloads.check_table(values)
    reference = {
        "about": "Seed-code answers for the brute-sweep and closed-forms workloads, "
        "and README golden CLI output; see make_reference.py.",
        "values": values,
        "cli": golden_cli(),
    }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
