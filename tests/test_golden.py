"""Byte-identity of `analyze` and `stats` reports across versions.

`tests/data/golden.json` holds, for the AB fixture and a dozen seeded
randsys systems that pass `validate`, the exit code, stderr and stdout of
`analyze` and `stats` (text and ``--json``) under four flag sets.  Each
case is replayed through `tracecause.cli.main` and must match byte for
byte: verdicts, witnesses, the work counters of `stats` (operand
state/edge counts among them; `analyze` reports none since schema 2)
and report layout.
Text reports are stored verbatim; ``--json`` reports, which repeat the
same facts at four times the size, by their SHA-256 digest.

Regenerate (only when a report change is intended) with
``PYTHONPATH=src python tests/test_golden.py``; that needs no pytest, so
this module does not import it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracecause.cli import main

from ab_fixture import FIXTURE_AB

DATA = Path(__file__).parent / "data" / "golden.json"


def _flag_sets(names: list[str]) -> list[list[str]]:
    return [
        [],
        ["--quantifier", "universal"],
        ["--minimal-only", "--allow-nonfaulty"],
        ["--model", f"{names[0]}=prefix-correct",
         "--cf", f"{names[-1]}=prefix-correct"],
    ]


def _argvs(names: list[str]) -> list[list[str]]:
    out = []
    for command in ("analyze", "stats"):
        for flags in _flag_sets(names):
            for json_flag in ([], ["--json"]):
                out.append([command] + flags + json_flag)
    return out


def _run(system: Path, trace: Path, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], str(system), str(trace)] + argv[1:])
    result = {"argv": argv, "code": code, "stderr": err.getvalue()}
    if "--json" in argv:
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        result["stdout_sha256"] = digest
    else:
        result["stdout"] = out.getvalue()
    return result


# Read at import for parametrization, except when run as the regenerator.
ENTRIES = (json.loads(DATA.read_text(encoding="utf-8"))
           if __name__ != "__main__" else [])


def pytest_generate_tests(metafunc):
    # pytest's module-level hook: one case per golden entry.
    metafunc.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])


def test_reports_are_byte_identical(tmp_path, entry):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(entry["system"]), encoding="utf-8")
    trace = tmp_path / "tr.txt"
    trace.write_text(entry["trace"], encoding="utf-8")
    for case in entry["cases"]:
        assert _run(system, trace, case["argv"]) == case


def _inputs():
    """(name, system document, trace text) for the AB fixture and the
    first seeded randsys systems with two or more components and an error
    trace."""
    from randsys import random_error_trace, random_system
    from tracecause.model import serialize_system

    yield "ab", FIXTURE_AB, "x=1 y=1\n"
    seed = 0
    found = 0
    while found < 12:
        rng = random.Random(seed)
        m = random_system(rng, max_components=3, refinement_holds=True)
        tr = random_error_trace(rng, m, max_len=3)
        if tr is not None and len(m.components) >= 2:
            yield (f"randsys{seed}", json.loads(serialize_system(m)),
                   tr.to_text() + "\n")
            found += 1
        seed += 1


def regenerate() -> None:
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        system = Path(tmp) / "sys.json"
        trace = Path(tmp) / "tr.txt"
        for name, doc, trace_text in _inputs():
            system.write_text(json.dumps(doc), encoding="utf-8")
            trace.write_text(trace_text, encoding="utf-8")
            with redirect_stdout(io.StringIO()):
                assert main(["validate", str(system)]) == 0, name
            names = [c["name"] for c in doc["components"]]
            cases = [_run(system, trace, argv) for argv in _argvs(names)]
            entries.append({"name": name, "system": doc,
                            "trace": trace_text, "cases": cases})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(entries, separators=(",", ":")) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    regenerate()
