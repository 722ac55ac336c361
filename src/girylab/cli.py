"""Command line surface: suite verification, Markov evolution, report
aggregation.

Output discipline: every number serializes as "p/q"; reports are
canonical JSON (sorted keys, no timestamps, no durations) so identical
seed and configuration reproduce identical bytes.  Durations go to
stderr on request.  Configuration precedence is flags, then config
file, then defaults; GIRYLAB_SEED supplies the default seed.

Exit codes: 0 when the command succeeds and every property holds, 1 when
a property is refuted, 2 on a named error (a GirylabError, printed as
``error: ...``), 3 on any other exception, a fault of the program
(printed as one ``internal error: <Type>: <message>`` line).  A standard
output closed by its reader before all output is written is a named
error too (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

from . import codensity, harness
from .config import SUITE_NAMES, SuiteConfig
from .errors import DigitLimitError, GirylabError, IngestionError
from .jsonio import (functional_from_json, kernel_from_json,
                     measure_from_json, space_from_json)
from .monad import denominator_base, n_step, trajectory
from .rational import format_rational, parse_int

CONFIG_KEYS = tuple(f.name for f in fields(SuiteConfig))
DEFAULT_CONFIG_FILE = "girylab.cfg"


def _read_text(path) -> str:
    """The UTF-8 text of the file ``path``; IngestionError naming it when
    it is missing, unreadable (a directory, say) or not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise IngestionError(f"file {path} does not exist") from None
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path} is not UTF-8 text: byte "
                             f"{exc.start} cannot be decoded") from None


def _read_config_file(path: Path) -> dict:
    values = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IngestionError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise IngestionError(
                f"{path}:{lineno}: unknown key {key!r}; "
                f"expected one of {', '.join(CONFIG_KEYS)}")
        try:
            values[key] = parse_int(value.strip())
        except DigitLimitError as exc:
            raise DigitLimitError(f"{path}:{lineno}: {key}: {exc}") from None
        except ValueError:
            raise IngestionError(f"{path}:{lineno}: {key} must be an integer")
    return values


def _env_seed() -> int:
    try:
        return parse_int(os.environ.get("GIRYLAB_SEED", "0"))
    except DigitLimitError as exc:
        raise DigitLimitError(f"GIRYLAB_SEED: {exc}") from None
    except ValueError:
        raise IngestionError("GIRYLAB_SEED must be an integer")


def _build_config(args) -> SuiteConfig:
    """Flags over the config file over defaults; GIRYLAB_SEED is read only
    when neither a flag nor the file sets the seed."""
    values = {}
    config_path = None
    if args.config is not None:
        config_path = Path(args.config)
        if not config_path.exists():
            raise IngestionError(f"config file {config_path} does not exist")
    elif Path(DEFAULT_CONFIG_FILE).exists():
        config_path = Path(DEFAULT_CONFIG_FILE)
    if config_path is not None:
        values.update(_read_config_file(config_path))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "seed" not in values:
        values["seed"] = _env_seed()
    return SuiteConfig(**values)


def _load_json(path: str) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise IngestionError(f"{path} nests JSON arrays or objects too deeply")


_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_XML_ATTR = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                           "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def escape(data: str) -> str:
    """XML character data: ``&``, ``<`` and ``>`` as entities, the same
    bytes as ``xml.sax.saxutils.escape``, whose import pulls in
    ``urllib.request`` and ``email``."""
    return data.translate(_XML_TEXT)


def quoteattr(data: str) -> str:
    """An XML attribute value in quotes, the same bytes as
    ``xml.sax.saxutils.quoteattr``: ``escape`` plus newline, carriage
    return and tab as character references, in double quotes unless the
    value holds a double quote and no single one; with both, ``"`` is
    written ``&quot;``."""
    data = data.translate(_XML_ATTR)
    if '"' not in data:
        return f'"{data}"'
    if "'" not in data:
        return f"'{data}'"
    return '"' + data.replace('"', "&quot;") + '"'


#: A character outside the XML 1.0 Char production: a control character
#: other than tab, newline and carriage return, a lone surrogate, U+FFFE
#: or U+FFFF.  No escape can write one in XML 1.0.  They are listed, not
#: matched as the complement of Char, which re compiles about 20 times
#: slower on every start.
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_attr(value, where: str) -> str:
    """``str(value)`` as a quoted XML attribute; IngestionError naming
    ``where`` when it holds a character XML 1.0 cannot carry."""
    text = str(value)
    bad = _NOT_XML_CHAR.search(text)
    if bad:
        raise IngestionError(f"{where} holds {ascii(bad.group())}, which "
                             "XML 1.0 cannot represent")
    return quoteattr(text)


def _suites(report_doc: dict, where: str) -> list:
    """``(where, suite report)`` for each suite report in a checked report:
    itself, or every suite report its ``reports`` merge, at any depth."""
    if "reports" not in report_doc:
        return [(where, report_doc)]
    return [s for i, doc in enumerate(report_doc["reports"])
            for s in _suites(doc, f"{where} reports[{i}]")]


def _junit_suite_lines(where: str, report_doc: dict) -> list:
    props = report_doc.get("properties", [])
    failures = sum(1 for p in props if p.get("result") != "pass")
    name = _xml_attr(report_doc.get("suite", "girylab"), f"{where} 'suite'")
    classname = _xml_attr(report_doc.get("suite", ""), f"{where} 'suite'")
    lines = [f'<testsuite name={name} tests="{len(props)}" '
             f'failures="{failures}" errors="0">']
    for i, p in enumerate(props):
        field = f"{where} properties[{i}]"
        prop = _xml_attr(p.get("property", "?"), f"{field} 'property'")
        lines.append(f'  <testcase classname={classname} name={prop}>')
        if p.get("result") != "pass":
            law = _xml_attr(p.get("law", ""), f"{field} 'law'")
            detail = escape(json.dumps(p.get("witness"), sort_keys=True))
            lines.append(f'    <failure message={law}>{detail}</failure>')
        lines.append('  </testcase>')
    lines.append('</testsuite>')
    return lines


def _junit_xml(report_docs: list) -> str:
    """One testsuite per suite report in the ``(where, report)`` pairs,
    merged reports written as the suites they hold; more or fewer than one
    go in a testsuites element.  IngestionError names the report and field
    holding text XML 1.0 cannot represent."""
    suites = [s for where, doc in report_docs for s in _suites(doc, where)]
    lines = ['<?xml version="1.0" encoding="utf-8"?>']
    if len(suites) == 1:
        lines += _junit_suite_lines(*suites[0])
    else:
        lines.append('<testsuites>')
        for suite in suites:
            lines += _junit_suite_lines(*suite)
        lines.append('</testsuites>')
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    if args.functional is None and args.space is not None:
        raise IngestionError("--space applies only with --functional")
    if args.functional is not None and (args.junit or args.timings):
        raise IngestionError("--junit and --timings apply only without "
                             "--functional")
    cfg = _build_config(args)
    if args.functional is not None:
        return _verify_user_functional(args, cfg)
    report = harness.run_suite(args.suite, cfg)
    print(report.to_json())
    if args.junit:
        xml = _junit_xml([("report", report.to_jsonable())])
        try:
            Path(args.junit).write_text(xml, encoding="utf-8")
        except OSError as exc:
            raise GirylabError(f"cannot write {args.junit}: "
                               f"{exc.strerror or exc}") from None
    if args.timings:
        for record in report.records:
            print(f"{record.name}: {record.duration:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def _verify_user_functional(args, cfg: SuiteConfig) -> int:
    """Stream naturality verdicts for a functional supplied as JSON."""
    if args.suite != "naturality":
        raise IngestionError("--functional applies to the naturality suite")
    space = None
    if args.space is not None:
        space = space_from_json(_load_json(args.space))
    phi = functional_from_json(_load_json(args.functional), space)
    alpha = codensity.lift(phi)
    all_pass = True
    for i in range(cfg.trials):
        rng = harness.case_rng(cfg.seed, "user-naturality", i)
        arity = rng.randint(1, cfg.max_arity)
        kind = rng.choice(("projection", "constant", "blend", None, None))
        if kind == "blend":
            arity = 2
        h = codensity.sample_affine(rng, arity, kind)
        fs = tuple(harness.generate_ifunction(rng, phi.space)
                   for _ in range(arity))
        verdict = codensity.check_naturality(alpha, h, fs)
        all_pass = all_pass and verdict.passed
        doc = dict(verdict.to_jsonable(), case=i, seed=cfg.seed)
        print(json.dumps(doc, sort_keys=True))
    summary = {"property": "naturality", "trials": cfg.trials,
               "seed": cfg.seed, "result": "pass" if all_pass else "fail",
               "witness": None}
    print(json.dumps(summary, sort_keys=True))
    return 0 if all_pass else 1


def _cmd_markov(args) -> int:
    kernel = kernel_from_json(_load_json(args.kernel))
    init = measure_from_json(_load_json(args.init), kernel.dom)
    if args.steps < 0:
        raise IngestionError("steps must be nonnegative")
    if kernel.dom != kernel.cod:
        raise IngestionError("markov evolution needs an endo-kernel "
                             "(dom and cod must agree)")
    if args.trace:
        shown = enumerate(trajectory(kernel, init, args.steps))
    else:
        shown = [(args.steps, n_step(kernel, init, args.steps))]
    base = denominator_base(kernel, init)
    for step, pi in shown:
        doc = {"step": step,
               "weights": {str(i): format_rational(n, pi.den, base)
                           for i, n in enumerate(pi.nums)}}
        print(json.dumps(doc, sort_keys=True))
    return 0


def _check_report(doc, where: str) -> None:
    """IngestionError naming ``where`` unless ``doc`` is a report: an
    object with a ``result`` of "pass" or "fail" and either
    ``properties``, a list of objects, or ``reports``, a list of reports
    checked the same way (a merged report).  The result must be "pass"
    exactly when every property or report in it passed."""
    if not isinstance(doc, dict):
        raise IngestionError(f"{where} is not a report: expected a JSON object")
    if "properties" in doc and "reports" in doc:
        raise IngestionError(f"{where} is not a report: it has both "
                             "'properties' and 'reports'")
    if "reports" in doc:
        kind, parts = "reports", doc["reports"]
        if not isinstance(parts, list):
            raise IngestionError(f"{where} is not a report: 'reports' must be a list")
        for i, sub in enumerate(parts):
            _check_report(sub, f"{where} reports[{i}]")
    else:
        kind, parts = "properties", doc.get("properties", [])
        if not isinstance(parts, list) or not all(isinstance(p, dict) for p in parts):
            raise IngestionError(
                f"{where} is not a report: 'properties' must be a list of objects")
    if doc.get("result") not in ("pass", "fail"):
        raise IngestionError(
            f"{where} is not a report: 'result' must be \"pass\" or \"fail\"")
    derived = "pass" if all(p.get("result") == "pass" for p in parts) else "fail"
    if parts and doc["result"] != derived:
        raise IngestionError(
            f"{where} is not a report: 'result' is {doc['result']!r}, "
            f"but its {kind} say {derived!r}")


def _cmd_report(args) -> int:
    docs = [_load_json(path) for path in args.inputs]
    for path, doc in zip(args.inputs, docs):
        _check_report(doc, path)
    merged = {"reports": docs,
              "result": "pass" if all(d["result"] == "pass" for d in docs)
              else "fail"}
    if args.format == "json":
        print(json.dumps(merged, sort_keys=True))
    else:
        sys.stdout.write(_junit_xml(list(zip(args.inputs, docs))))
    return 0 if merged["result"] == "pass" else 1


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(SuiteConfig):
        default = "GIRYLAB_SEED or 0" if f.name == "seed" else f.default
        cap = f.metadata.get("cap")
        bounds = f"default {default}" + (f", at most {cap}" if cap else "")
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            type=int, default=None,
                            help=f"{f.metadata['help']} ({bounds})")
    parser.add_argument("--config", default=None,
                        help=f"key=value config file (default ./{DEFAULT_CONFIG_FILE} "
                             "when present)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girylab",
        description="Exact verification of probability-monad structure on "
                    "finite measurable spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument("suite", choices=(*SUITE_NAMES, "all"))
    _add_config_flags(verify)
    verify.add_argument("--junit", default=None,
                        help="also mirror the report to a JUnit XML file")
    verify.add_argument("--timings", action="store_true",
                        help="print per-property durations to stderr")
    verify.add_argument("--space", default=None,
                        help="FinSpace JSON (with --functional)")
    verify.add_argument("--functional", default=None,
                        help="functional JSON to check for naturality")

    markov = sub.add_parser("markov", help="evolve a Markov chain exactly")
    markov.add_argument("--kernel", required=True, help="kernel JSON file")
    markov.add_argument("--init", required=True, help="initial measure JSON file")
    markov.add_argument("--steps", type=int, required=True)
    markov.add_argument("--trace", action="store_true",
                        help="print every step, not only the final one")

    report = sub.add_parser("report", help="aggregate saved reports")
    report.add_argument("inputs", nargs="+", help="report JSON files")
    report.add_argument("--format", choices=("json", "junit"), default="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"verify": _cmd_verify, "markov": _cmd_markov,
                "report": _cmd_report}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except GirylabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (``girylab ... | head``): a fault of the
        # caller, not of the program.  Pointing stdout at devnull lets the
        # interpreter's last flush of what is still buffered succeed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before all output was "
              "written", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
