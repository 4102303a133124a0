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

Comparing lists every call that differs and exits 1 if any does.
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


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    call = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(call.encode("utf-8")).hexdigest()


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


def replay() -> dict[str, str]:
    workloads = _load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        return {key: _digest(argv)
                for key, argv in _calls(workloads, Path(tmp))}


def run(write: bool) -> int:
    digests = replay()
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
