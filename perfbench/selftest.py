"""Self-test of the tracer.

    python3 perfbench/selftest.py

Runs small versions of the four workloads in this process, untraced and
then traced, and checks that:

- installing the tracer rebinds names, and uninstalling it puts back
  every module global and class attribute of girylab exactly as before;
- traced and untraced runs print byte-identical output;
- each workload fires the spans it is expected to fire;
- every per-layer metric named in BENCHMARK.json is one the tracer or
  run.py produces.

Exit code 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import girylab.cli  # noqa: E402,F401  (loads every module a span patches)
from launch import MODES  # noqa: E402
from tracer import METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: workload -> attributes overridden to keep the test short.
SMALL = {"verify-all": {"trials": 20}, "markov-final": {"steps": 100},
         "markov-trace": {"steps": 100}}


def snapshot() -> dict:
    """Every girylab module global and patched-class attribute, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "girylab" or name.startswith("girylab."):
            out.update(((name, attr), value) for attr, value in vars(module).items())
    for _, module, cls_name, _ in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        out.update(((cls_name, attr), value) for attr, value in vars(cls).items())
    return out


def run_once(argv: list) -> str:
    """sha256 of what the launched mode prints; the mode must exit 0."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = MODES[argv[0]](argv[1:], False)
    if code != 0:
        raise SystemExit(f"selftest: {argv} exited {code}")
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    errors = []
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        runs = {}
        for name, cls in WORKLOADS.items():
            workload = cls(3)
            for attr, value in SMALL.get(name, {}).items():
                setattr(workload, attr, value)
            workload.make_inputs(Path(tmp))
            runs[name] = (workload, workload.argv(Path(tmp)))

        before = snapshot()
        plain = {name: run_once(argv) for name, (_, argv) in runs.items()}
        traced, fired = {}, {}
        for name, (workload, argv) in runs.items():
            tracer = Tracer()
            tracer.install()
            try:
                if snapshot() == before:
                    errors.append("installing the tracer rebound nothing")
                traced[name] = run_once(argv)
            finally:
                tracer.uninstall()
            flat = tracer.flat()
            fired[name] = flat
            silent = [s for s in workload.spans if flat[f"{s}.calls"] == 0]
            if silent:
                errors.append(f"{name}: expected spans never fired: {silent}")
        after = snapshot()

    moved = sorted(f"{m}.{a}" for m, a in set(before) | set(after)
                   if before.get((m, a)) is not after.get((m, a)))
    if moved:
        errors.append(f"names not restored: {moved}")
    errors += [f"{name}: traced output differs from untraced output"
               for name in plain if plain[name] != traced[name]]
    known = set().union(*fired.values()) | {"trace.overhead_s"}
    errors += [f"per-layer metric {m['name']} is never produced"
               for m in spec["per_layer"] if m["name"] not in known]

    for error in errors:
        print(f"selftest: FAIL {error}")
    if not errors:
        print(f"selftest: ok ({len(before)} names restored, "
              f"{len(plain)} workloads traced and untraced alike)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
