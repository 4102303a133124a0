"""Byte-identity of every report on the benchmark's input families.

Passes 0-1 of seed 1 of the ``deep``, ``wide`` and ``corpus`` workloads
(``bench/workloads.py``, loaded from its file) are written to a
temporary directory.  Through `tracecause.cli.main`, every job runs
``analyze`` and ``stats``, in text and with ``--json``, with the job's
flags, and every distinct system runs ``validate`` in both forms.
``tests/data/replay.json`` holds the SHA-256 of each call's exit code,
stdout and stderr, keyed by workload, pass, job or system index and
command.

    PYTHONPATH=src python tests/replay.py           # compare
    PYTHONPATH=src python tests/replay.py --write   # re-record

Comparing lists every call that differs and exits 1 if any does.  Both
modes also check that every ``--json`` report is the text
``json.dumps(doc, indent=2)`` gives for its document, and exit 1 before
anything else if one is not.
Re-record only when a report change is intended, or when
``bench/workloads.py`` changes the families.  pytest does not collect
this module; it needs no test extras.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracecause.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data" / "replay.json"
WORKLOADS = ("deep", "wide", "corpus")
SEED = 1
PASSES = (0, 1)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _digest(argv: list[str]) -> tuple[str, bool]:
    """The digest of one call, and whether its stdout, when it is a
    ``--json`` report, is what ``json.dumps(doc, indent=2)`` writes for
    its document (the report writer must give the same text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    call = json.dumps([code, text, err.getvalue()])
    as_stdlib = ("--json" not in argv or not text
                 or text == json.dumps(json.loads(text), indent=2) + "\n")
    return hashlib.sha256(call.encode("utf-8")).hexdigest(), as_stdlib


def _calls(workloads, where: Path):
    """(key, argv) of every call, in a fixed order."""
    for name in WORKLOADS:
        for p in PASSES:
            w = workloads.make(name, SEED, "full", p)
            systems: dict[str, str] = {}
            paths = []
            for i, inst in enumerate(w.instances):
                if inst.system not in systems:
                    systems[inst.system] = str(
                        where / f"{name}-{p}-system{len(systems)}.json")
                    Path(systems[inst.system]).write_text(
                        inst.system, encoding="utf-8")
                trace = where / f"{name}-{p}-trace{i}.txt"
                trace.write_text(inst.trace, encoding="utf-8")
                paths.append((systems[inst.system], str(trace)))
            for j, system in enumerate(systems.values()):
                for form in ([], ["--json"]):
                    yield (" ".join([f"{name}/{p}/system{j}", "validate",
                                     *form]),
                           ["validate", system, *form])
            for i, job in enumerate(w.jobs):
                for command in ("analyze", "stats"):
                    for form in ([], ["--json"]):
                        yield (" ".join([f"{name}/{p}/job{i}", command,
                                         *form]),
                               [command, *paths[job.instance], *form,
                                *job.flags])


def replay() -> tuple[dict[str, str], list[str]]:
    """The digest of each call, and the calls whose ``--json`` report is
    not the standard library's text of its document."""
    workloads = _load_workloads()
    digests, unlike = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in _calls(workloads, Path(tmp)):
            digests[key], as_stdlib = _digest(argv)
            if not as_stdlib:
                unlike.append(key)
    return digests, unlike


def run(write: bool) -> int:
    digests, unlike = replay()
    for key in unlike:
        print(f"not json.dumps(doc, indent=2): {key}")
    if unlike:
        return 1
    if write:
        DATA.parent.mkdir(exist_ok=True)
        DATA.write_text(json.dumps(digests, indent=0) + "\n",
                        encoding="utf-8")
        print(f"recorded {len(digests)} calls")
        return 0
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    differ = [key for key in recorded.keys() | digests.keys()
              if recorded.get(key) != digests.get(key)]
    for key in sorted(differ):
        print(f"differs: {key}")
    print(f"{len(digests)} calls, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(run("--write" in sys.argv[1:]))
