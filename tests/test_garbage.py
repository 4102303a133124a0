"""Jobs leave no cyclic garbage.

Each case runs with the collector disabled and then counts what
``gc.collect()`` finds.  Reading a system file and every command, on
its success and error paths alike, must leave nothing for the cyclic
collector, so a long run of short jobs never pays for a full collection
of what they left behind.  That holds for ``--json`` reports too: they
are written by `tracecause.jsontext`, not by the standard library's
indenting encoder, which leaves a reference cycle per call on Python
3.10 to 3.12.
"""

from __future__ import annotations

import gc
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tracecause.cli import main
from tracecause.model import parse_system, serialize_system

from conftest import ab_doc
from randsys import random_system

ROOT = Path(__file__).resolve().parent.parent
DEMO_SYSTEM = str(ROOT / "demos" / "data" / "system.json")
DEMO_TRACE = str(ROOT / "demos" / "data" / "trace.txt")
GOLDEN = ROOT / "tests" / "data" / "golden.json"


def garbage_after(call):
    """(what ``call()`` returned, the number of objects ``gc.collect()``
    finds after it ran with the collector disabled)."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = call()
        return result, gc.collect()
    finally:
        if enabled:
            gc.enable()


def run_main(*argv):
    """(exit code, stdout) of ``main(argv)``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def main_garbage(*argv):
    """(exit code, stdout, garbage) of ``main(argv)`` after a first call,
    so only what every job leaves is counted."""
    run_main(*argv)
    (code, out), found = garbage_after(lambda: run_main(*argv))
    return code, out, found


def _system_texts():
    yield "demo", Path(DEMO_SYSTEM).read_text(encoding="utf-8")
    for entry in json.loads(GOLDEN.read_text(encoding="utf-8")):
        yield entry["name"], json.dumps(entry["system"])
    for seed in range(20):
        m = random_system(random.Random(seed), max_components=3)
        yield f"randsys{seed}", serialize_system(m)


def test_parse_system_leaves_no_garbage():
    found = {name: garbage_after(lambda: parse_system(text))[1]
             for name, text in _system_texts()}
    assert found == dict.fromkeys(found, 0)
    # Nor does building the guards of its automata to print them.
    found = {name: garbage_after(
                 lambda: serialize_system(parse_system(text)))[1]
             for name, text in _system_texts()}
    assert found == dict.fromkeys(found, 0)


def demo_argv(command: str, *flags: str) -> list[str]:
    """``command`` on the demo system (and trace) with ``flags``."""
    files = [DEMO_SYSTEM] if command == "validate" else [DEMO_SYSTEM,
                                                          DEMO_TRACE]
    return [command, *files, *flags]


COMMANDS = [
    ["validate"],
    ["analyze"],
    ["stats"],
    ["analyze", "--quantifier", "universal", "--minimal-only"],
    ["stats", "--quantifier", "universal", "--minimal-only"],
]


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_text_reports_leave_no_garbage(command):
    code, _, found = main_garbage(*demo_argv(*command))
    assert code == 0
    assert found == 0


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_json_reports_leave_only_the_encoders_garbage(command):
    # The report's encoder, `tracecause.jsontext`, leaves none.
    code, out, found = main_garbage(*demo_argv(*command, "--json"))
    assert code == 0
    assert json.loads(out)["command"] == command[0]
    assert found == 0


def _with_guard(guard: str) -> str:
    doc = ab_doc()
    doc["components"][0]["spec"]["edges"][0]["guard"] = guard
    return json.dumps(doc)


# (case, command, system text, trace text or None, exit code) of each
# refusal; validate reads no trace.
REFUSALS = [
    (case, command, system, None if command == "validate" else trace, code)
    for case, commands, system, trace, code in [
        ("malformed-guard", ("validate", "analyze", "stats"),
         _with_guard("x & (y"), "x=1 y=1", 2),
        ("undeclared-variable", ("validate", "analyze", "stats"),
         _with_guard("!z"), "x=1 y=1", 1),
        ("not-an-error-trace", ("analyze", "stats"),
         json.dumps(ab_doc()), "x=0 y=0", 4),
    ]
    for command in commands]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("case, command, system, trace, code", REFUSALS,
                         ids=[f"{r[1]}-{r[0]}" for r in REFUSALS])
def test_refusals_leave_no_garbage(tmp_path, json_flag, case, command,
                                   system, trace, code):
    (tmp_path / "sys.json").write_text(system, encoding="utf-8")
    argv = [command, str(tmp_path / "sys.json")]
    if trace is not None:
        (tmp_path / "tr.txt").write_text(trace + "\n", encoding="utf-8")
        argv.append(str(tmp_path / "tr.txt"))
    got_code, out, found = main_garbage(*argv, *json_flag)
    assert got_code == code
    # validate --json reports the undeclared variable as a document.
    assert found == 0
