"""One workload process.

    python3 perfbench/launch.py [--spans FILE] [--setup-only] cli ARGS...
    python3 perfbench/launch.py [--spans FILE] [--setup-only] integrate MIXTURES

``cli`` runs ``girylab.cli.main(ARGS)``, as the ``girylab`` console
script does.  ``integrate`` reads point/uniform mixtures and prints the
certified bounds of x and x^2 against each, one JSON line per pair; no
CLI command reaches that integrator.

``--setup-only`` stops before the timed call: it starts the interpreter,
imports girylab and ingests the input files, then exits.  ``--spans``
traces the run (see tracer.py) and writes the span statistics to FILE.
girylab must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: integrand name -> (f, modulus of uniform continuity of f on [0,1]).
INTEGRANDS = {
    "x": (lambda x: x, lambda e: e),
    "x^2": (lambda x: x * x, lambda e: e / 2),
}


def _run_cli(argv: list, setup_only: bool) -> int:
    from girylab import cli, jsonio
    if not setup_only:
        return cli.main(argv)
    args = cli.build_parser().parse_args(argv)
    if args.command == "markov":
        kernel = jsonio.kernel_from_json(json.loads(Path(args.kernel).read_text()))
        jsonio.measure_from_json(json.loads(Path(args.init).read_text()), kernel.dom)
    return 0


def _run_integrate(argv: list, setup_only: bool) -> int:
    from girylab import jsonio, measures, rational
    doc = json.loads(Path(argv[0]).read_text())
    eps = rational.parse_rational(doc["eps"])
    mixtures = [jsonio.interval_measure_from_json(m) for m in doc["mixtures"]]
    if setup_only:
        return 0
    for i, m in enumerate(mixtures):
        for name, (f, modulus) in INTEGRANDS.items():
            lo, hi = measures.integrate_approx_bounds(f, modulus, eps, m)
            print(json.dumps({"mixture": i, "integrand": name,
                              "lo": f"{lo.numerator}/{lo.denominator}",
                              "hi": f"{hi.numerator}/{hi.denominator}"},
                             sort_keys=True))
    return 0


MODES = {"cli": _run_cli, "integrate": _run_integrate}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    import girylab.cli  # noqa: F401  (loads every module a span patches)
    run = MODES[opts.mode]
    if opts.spans is None:
        return run(opts.args, opts.setup_only)
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = run(opts.args, opts.setup_only)
    finally:
        tracer.uninstall()
    Path(opts.spans).write_text(json.dumps(tracer.flat(), sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
