"""girylab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a closed loop: one client, one
workload process at a time, each started only after the previous one
exited.  Every process's output is checked before its run counts.

With ``--trace 0`` it prints the end-to-end metrics: ``wall_s``, the
mean over the run's processes of the seconds from launching a workload
process to its exit (the mean, not the median: see README.md);
``setup_s``, the median over the run's set-ups of the seconds spent before
the timed call (generating the inputs from the seed, then a process that
starts the interpreter, imports girylab, ingests the inputs and exits);
``peak_rss_mb``, the median peak resident memory of the workload process
from ``wait4``.  With ``--trace 1`` it alternates untraced and traced
processes and prints the per-layer metrics of the traced ones (see
tracer.py) with ``trace.overhead_s``, the traced minus the untraced
mean ``wall_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
fail rate.  A results file with every sample, the Python version,
``nproc``, the commit and the seed goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_UNTRACED_RUNS = 3
PROCESS_TIMEOUT_S = 150


@dataclass
class Attempt:
    """One finished workload process."""

    wall_s: float
    peak_rss_mb: float
    problem: str | None
    digest: str
    spans: dict | None


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GIRYLAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def launch(launch_args: list, directory: Path, spans: Path | None = None,
           setup_only: bool = False):
    """Run ``launch.py`` once; returns (wall_s, peak_rss_mb, exit code,
    stdout bytes, stderr bytes)."""
    cmd = [sys.executable, str(BENCH / "launch.py")]
    cmd += ["--spans", str(spans)] if spans else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += launch_args
    out_path, err_path = directory / "stdout", directory / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=_child_env())
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024, proc.returncode,
            out_path.read_bytes(), err_path.read_bytes())


def attempt(workload, directory: Path, traced: bool = False) -> Attempt:
    spans_path = directory / "spans.json" if traced else None
    if spans_path is not None and spans_path.exists():
        spans_path.unlink()
    wall, rss, code, out, err = launch(workload.argv(directory), directory,
                                       spans_path)
    spans = None
    if code != 0:
        problem = f"exit code {code}: {err.decode(errors='replace')[-300:]}"
    elif b"Traceback" in err:
        problem = "traceback on stderr"
    else:
        problem = workload.check(out)
    if problem is None and traced:
        spans = json.loads(spans_path.read_text())
        silent = [s for s in workload.spans if spans[f"{s}.calls"] == 0]
        if silent:
            problem = f"expected spans never fired: {silent}"
    return Attempt(wall, rss, problem, hashlib.sha256(out).hexdigest(), spans)


def set_up(workload, directory: Path) -> tuple[float, str | None]:
    """Generate the inputs and run the setup-only process; returns the
    seconds taken and a problem, if any."""
    start = time.perf_counter()
    workload.make_inputs(directory)
    generated = time.perf_counter() - start
    wall, _, code, _, err = launch(workload.argv(directory), directory,
                                   setup_only=True)
    problem = None if code == 0 else (
        f"set-up exit code {code}: {err.decode(errors='replace')[-300:]}")
    return generated + wall, problem


def measure(workload, directory: Path, seconds: float, trace: bool):
    """Closed loop within ``seconds``.  Each round sets up, then runs one
    untraced process and, when ``trace`` is set, one traced process.  Set-ups
    are spread over the run so that their median samples the whole run.  No
    round starts that the last one says would end past ``seconds``, once the
    minimum number is done."""
    setups, untraced, traced = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups.append(set_up(workload, directory))
        untraced.append(attempt(workload, directory))
        if trace:
            traced.append(attempt(workload, directory, traced=True))
        now = time.perf_counter()
        if (len(untraced) >= (1 if trace else MIN_UNTRACED_RUNS)
                and 2 * now - round_start - start > seconds):
            return setups, untraced, traced


def _summary(values: list) -> dict:
    out = {"n": len(values), "mean": statistics.fmean(values),
           "median": statistics.median(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "girylab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="girylab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "girylab" / "cli.py").is_file():
        print(f"error: girylab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # the oracles' numbers may be long
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        directory = Path(tmp)
        workload.prepare_check()
        setups, untraced, traced = measure(workload, directory, args.seconds,
                                           trace)

    runs = untraced + traced
    for a in runs[1:]:
        if a.problem is None and a.digest != runs[0].digest:
            a.problem = "output differs from the first output of this run"
    problems = [p for _, p in setups if p] + [a.problem for a in runs if a.problem]
    attempted = len(setups) + len(runs)

    walls = [a.wall_s for a in untraced]
    values = {"wall_s": statistics.fmean(walls),
              "setup_s": statistics.median(s for s, _ in setups),
              "peak_rss_mb": statistics.median(a.peak_rss_mb for a in untraced)}
    spans = [a.spans for a in traced if a.spans is not None]
    if spans:
        values.update({k: statistics.median_low(s[k] for s in spans)
                       for k in spans[0]})
        values["trace.overhead_s"] = (
            statistics.fmean(a.wall_s for a in traced) - values["wall_s"])
    section = "per_layer" if trace else "end_to_end"
    # a failed run may lack some figures; a correct one must have them all
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if problems
                           else values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(problems), "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": sys.version, "nproc":
        len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "commit": _git_commit(), "source_sha256": _source_sha256(),
        "fail_rate": len(problems) / attempted, "problems": problems,
        "samples": {"wall_s": walls, "setup_s": [s for s, _ in setups],
                    "peak_rss_mb": [a.peak_rss_mb for a in untraced],
                    "traced_wall_s": [a.wall_s for a in traced]},
        "summary": {"wall_s": _summary(walls),
                    "setup_s": _summary([s for s, _ in setups])},
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
