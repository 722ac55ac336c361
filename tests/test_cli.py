"""Command surface: markov evolution, verification, reports, config."""

import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from girylab import cli, monad, rational
from girylab.cli import main
from girylab.harness import generate_kernel, generate_measure
from girylab.rational import format_rational
from girylab.spaces import generate_sigma

TWO_STATE = {"carrier": ["0", "1"], "generators": [["0"], ["1"]]}

ABSORBING = {
    "dom": TWO_STATE, "cod": TWO_STATE,
    "rows": {"0": {"0": "1/2", "1": "1/2"}, "1": {"1": "1/1"}},
}

DELTA_0 = {"space": TWO_STATE, "weights": {"0": "1/1"}}

FLOAT_PATTERN = re.compile(r"\d+\.\d")


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestMarkov:
    def test_two_steps_final_distribution(self, tmp_path, capsys):
        code = main(["markov", "--kernel", write(tmp_path, "k.json", ABSORBING),
                     "--init", write(tmp_path, "pi.json", DELTA_0),
                     "--steps", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {"step": 2, "weights": {"0": "1/4", "1": "3/4"}}

    def test_trace_streams_every_step(self, tmp_path, capsys):
        main(["markov", "--kernel", write(tmp_path, "k.json", ABSORBING),
              "--init", write(tmp_path, "pi.json", DELTA_0),
              "--steps", "3", "--trace"])
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["step"] for d in docs] == [0, 1, 2, 3]
        assert docs[0]["weights"] == {"0": "1/1", "1": "0/1"}
        assert docs[3]["weights"] == {"0": "1/8", "1": "7/8"}

    def test_malformed_kernel_names_invariant(self, tmp_path, capsys):
        bad = dict(ABSORBING, rows={"0": {"0": "1/2", "1": "1/3"},
                                    "1": {"1": "1/1"}})
        code = main(["markov", "--kernel", write(tmp_path, "k.json", bad),
                     "--init", write(tmp_path, "pi.json", DELTA_0),
                     "--steps", "1"])
        assert code == 2
        assert "sum to 1/1" in capsys.readouterr().err

    def test_long_total_mass_named(self, tmp_path, capsys):
        """Weights 1/p and 1/q each fit the digit limit, but their sum
        (p + q)/(p * q) does not: the error names the sum that is wrong,
        with its size in place of its digits."""
        p, q = 10 ** 2999 + 1, 10 ** 2999 + 3
        init = {"space": TWO_STATE, "weights": {"0": f"1/{p}", "1": f"1/{q}"}}
        code = main(["markov", "--kernel", write(tmp_path, "k.json", ABSORBING),
                     "--init", write(tmp_path, "pi.json", init),
                     "--steps", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: measure: weights must sum to 1/1, got "
                                "total mass a rational of 5,999 digits\n")

    def test_non_endo_kernel_rejected(self, tmp_path, capsys):
        one = {"carrier": ["z"], "generators": []}
        k = {"dom": TWO_STATE, "cod": one,
             "rows": {"0": {"0": "1/1"}, "1": {"0": "1/1"}}}
        code = main(["markov", "--kernel", write(tmp_path, "k.json", k),
                     "--init", write(tmp_path, "pi.json", DELTA_0),
                     "--steps", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: markov evolution needs an endo-kernel (dom and cod must "
            "agree)\n")

    def test_negative_steps_rejected(self, tmp_path, capsys):
        code = main(["markov", "--kernel", write(tmp_path, "k.json", ABSORBING),
                     "--init", write(tmp_path, "pi.json", DELTA_0),
                     "--steps", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: step count must be nonnegative\n"

    @pytest.mark.parametrize("space, error", [
        pytest.param("garbage", "space document must be an object", id="garbage"),
        pytest.param({"carrier": ["0", "1", "2"], "generators": []},
                     "measure document's space (carrier ['0', '1', '2']",
                     id="wrong-size"),
        pytest.param({"carrier": ["1", "0"], "generators": [["0"], ["1"]]},
                     "measure document's space (carrier ['1', '0']",
                     id="reordered")])
    def test_init_space_must_be_the_kernels(self, tmp_path, capsys, space,
                                            error):
        code = main(["markov", "--kernel", write(tmp_path, "k.json", ABSORBING),
                     "--init", write(tmp_path, "pi.json",
                                     dict(DELTA_0, space=space)),
                     "--steps", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {error}")

    @pytest.mark.parametrize("carrier, generators, steps", [
        ("abcde", [[c] for c in "abcde"], 37),
        ("abcde", [[c] for c in "abcde"], 64),
        ("abcdef", [["a", "b"], ["c"]], 45),
    ])
    def test_final_state_is_last_trace_line(self, tmp_path, capsys,
                                            carrier, generators, steps):
        space_doc = {"carrier": list(carrier), "generators": generators}
        rng = random.Random(steps)
        kernel_doc, init_doc = _generated_chain_docs(rng, space_doc)
        argv = ["markov", "--kernel", write(tmp_path, "k.json", kernel_doc),
                "--init", write(tmp_path, "pi.json", init_doc),
                "--steps", str(steps)]
        assert main(argv) == 0
        final = capsys.readouterr().out
        assert main(argv + ["--trace"]) == 0
        trace = capsys.readouterr().out.splitlines(keepends=True)
        assert len(trace) == steps + 1
        assert final == trace[-1]

    @pytest.mark.parametrize("steps, trace", [
        ("900", True), ("900", False), ("1000000000", False),
        ("1000000000", True)])
    def test_digit_limit_exits_2(self, tmp_path, capsys, steps, trace):
        """The chain of ROADMAP defect D1 passes 4,300 digits before step 900."""
        space_doc = _discrete_doc([f"s{i}" for i in range(8)])
        rng = random.Random(1)
        kernel_doc, init_doc = _generated_chain_docs(rng, space_doc)
        argv = ["markov", "--kernel", write(tmp_path, "k.json", kernel_doc),
                "--init", write(tmp_path, "pi.json", init_doc),
                "--steps", steps] + (["--trace"] if trace else [])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "more than the limit of 4,300" in err
        assert "state at step 824 has" in err

    def test_no_full_size_gcd_on_the_decimal_write_path(self, monkeypatch):
        """What ``markov --trace`` does, on the D1 chain: each of the 401
        Decimal states of ``decimal_states`` is reduced, and each of its
        weights, from residues of the chain's base.  No gcd that ``monad``
        takes there sees an operand wider than 64 bits, while the last
        state's denominator is over 6,900 bits wide.  ``n_step``, run
        first, reduces its int states by full-size gcds, taken in
        ``rational``."""
        widest = []

        def watched(*args):
            widest.append(max(abs(a).bit_length() for a in args))
            return gcd(*args)

        labels = [f"s{i}" for i in range(8)]
        space = generate_sigma(labels, [[x] for x in labels])
        rng = random.Random(1)
        k, pi = generate_kernel(rng, space, space), generate_measure(rng, space)
        monkeypatch.setattr(monad, "gcd", watched)
        written = [format_rational(pairs)
                   for _, pairs in monad.markov_weights(k, pi, 400, True)]
        monkeypatch.undo()
        assert len(written) == 401
        assert max(int(w.split("/")[1]) for w in written[-1]).bit_length() > 6900
        assert len(widest) > 400 * 8 and max(widest) <= 64

    def test_trace_memory_does_not_grow_with_the_steps(self, tmp_path,
                                                       monkeypatch):
        """The identity chain from (1/2, 1/2) never grows its numbers, so a
        trace of 5,000 steps peaks within a small constant of one step:
        no step's state is held past the line it is written on."""
        identity = {"dom": TWO_STATE, "cod": TWO_STATE,
                    "rows": {"0": {"0": "1/1"}, "1": {"1": "1/1"}}}
        half = {"space": TWO_STATE, "weights": {"0": "1/2", "1": "1/2"}}
        argv = ["markov", "--kernel", write(tmp_path, "k.json", identity),
                "--init", write(tmp_path, "pi.json", half), "--trace", "--steps"]

        class Discard(io.TextIOBase):
            def write(self, s):
                return len(s)

        def peak(steps):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert main(argv + [str(steps)]) == 0
            return tracemalloc.get_traced_memory()[1] - before

        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            peak(1)  # warm-up: imports, caches and the first allocations
            one, many = peak(1), peak(5000)
        finally:
            tracemalloc.stop()
        assert many <= one + 64 * 1024, (one, many)

    def test_stationary_start_runs_past_its_kernel_powers(self, tmp_path,
                                                          capsys):
        """K^m has 2^m as denominator (past 4,300 digits from m = 14,285),
        but the uniform start stays uniform on both paths."""
        three = {"carrier": ["a", "b", "c"],
                 "generators": [["a"], ["b"], ["c"]]}
        k = {"dom": three, "cod": three,
             "rows": {"0": {"0": "1/2", "1": "1/2"}, "1": {"1": "1/2", "2": "1/2"},
                      "2": {"0": "1/2", "2": "1/2"}}}
        uniform = {"space": three,
                   "weights": {"0": "1/3", "1": "1/3", "2": "1/3"}}
        argv = ["markov", "--kernel", write(tmp_path, "k.json", k),
                "--init", write(tmp_path, "pi.json", uniform),
                "--steps", "16384"]
        assert main(argv) == 0
        final = capsys.readouterr().out
        assert json.loads(final) == {
            "step": 16384, "weights": {"0": "1/3", "1": "1/3", "2": "1/3"}}
        assert main(argv + ["--trace"]) == 0
        assert capsys.readouterr().out.splitlines(keepends=True)[-1] == final

    def test_oversized_json_integer_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pi.json"
        path.write_text('{"space": {"carrier": ["a"]}, "weights": {"0": '
                        + "1" * 5000 + "}}")
        code = main(["markov", "--kernel", write(tmp_path, "k.json", ABSORBING),
                     "--init", str(path), "--steps", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "5,000 digits" in err and len(err) < 300

    def test_long_weight_key_exits_2(self, tmp_path, capsys):
        init = {"space": TWO_STATE, "weights": {"1" * 5000: "1/1"}}
        code = main(["markov", "--kernel", write(tmp_path, "k.json", ABSORBING),
                     "--init", write(tmp_path, "pi.json", init), "--steps", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "5,000 digits" in err and len(err) < 300

    def test_missing_file(self, tmp_path, capsys):
        code = main(["markov", "--kernel", str(tmp_path / "nope.json"),
                     "--init", str(tmp_path / "nope2.json"), "--steps", "1"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_lowered_int_limit_changes_no_byte(self, tmp_path):
        """A lower int-to-str limit of the interpreter is raised to
        MAX_DIGITS: 400 steps of the 8-state kernel of defect D1 (see
        ROADMAP.md) write weights longer than 640 digits either way."""
        space_doc = _discrete_doc([f"s{i}" for i in range(8)])
        kernel_doc, init_doc = _generated_chain_docs(random.Random(1), space_doc)
        argv = [sys.executable, "-m", "girylab.cli", "markov",
                "--kernel", write(tmp_path, "k.json", kernel_doc),
                "--init", write(tmp_path, "pi.json", init_doc),
                "--steps", "400"]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        default, lowered = (
            subprocess.run(argv, env=dict(env, **extra), capture_output=True)
            for extra in ({}, {"PYTHONINTMAXSTRDIGITS": "640"}))
        assert (lowered.returncode, lowered.stderr) == (0, b"")
        assert lowered.stdout == default.stdout
        weights = json.loads(default.stdout)["weights"].values()
        assert max(len(w) for w in weights) > 2 * 640


def _discrete_doc(labels):
    """The space document of the discrete space on ``labels``."""
    return {"carrier": labels, "generators": [[x] for x in labels]}


def _chain_docs(space_doc, matrix, init):
    """Kernel and initial-measure JSON for a matrix and a vector of
    Fractions indexed by the atoms of the space ``space_doc`` reads as."""
    rows = {str(i): {str(j): format_rational(w) for j, w in enumerate(row)}
            for i, row in enumerate(matrix)}
    return ({"dom": space_doc, "cod": space_doc, "rows": rows},
            {"space": space_doc,
             "weights": {str(i): format_rational(w) for i, w in enumerate(init)}})


def _generated_chain_docs(rng, space_doc):
    """Kernel and initial-measure JSON for a kernel and a measure that
    ``rng`` draws, in that order, on the space ``space_doc`` reads as."""
    space = generate_sigma(space_doc["carrier"], space_doc["generators"])
    k = generate_kernel(rng, space, space)
    pi = generate_measure(rng, space)
    return _chain_docs(space_doc, [row.weights for row in k.rows], pi.weights)


def _oracle_lines(matrix, init, steps):
    """``markov --trace`` output by Fraction row-vector times matrix, each
    weight written by the Fraction form of ``format_rational``."""
    lines, vec = [], list(init)
    for step in range(steps + 1):
        doc = {"step": step, "weights": {str(i): format_rational(w)
                                         for i, w in enumerate(vec)}}
        lines.append(json.dumps(doc, sort_keys=True) + "\n")
        vec = [sum((vec[i] * matrix[i][j] for i in range(len(vec))), Fraction(0))
               for j in range(len(vec))]
    return lines


def _random_row(rng, n, zero=()):
    """A seeded probability row of length n, zero at the indices ``zero``."""
    raw = [0 if j in zero else rng.randint(1, 9) for j in range(n)]
    return [Fraction(r, sum(raw)) for r in raw]


def _chain(name):
    rng = random.Random(name)
    if name == "six points, three atoms":
        space_doc = {"carrier": list("abcdef"),
                     "generators": [["a", "b"], ["c", "d"]]}
        matrix = [_random_row(rng, 3) for _ in range(3)]
        return space_doc, matrix, _random_row(rng, 3), 40
    if name == "deterministic kernel, point start (base 1)":
        matrix = [[Fraction(int(j == (i + 1) % 4)) for j in range(4)]
                  for i in range(4)]
        init = [Fraction(int(j == 1)) for j in range(4)]
        return _discrete_doc(list("abcd")), matrix, init, 9
    if name == "zero initial weight":
        matrix = [_random_row(rng, 3, zero=(1,)), _random_row(rng, 3),
                  _random_row(rng, 3, zero=(1,))]
        init = [Fraction(1, 3), Fraction(0), Fraction(2, 3)]
        return _discrete_doc(list("abc")), matrix, init, 30
    big = 10 ** 1500 + 7
    matrix = [_random_row(rng, 3) for _ in range(3)]
    init = [Fraction(1, big), Fraction(2, big), Fraction(big - 3, big)]
    return _discrete_doc(list("abc")), matrix, init, 20


class TestMarkovOracle:
    """``markov`` writes states with ``format_rational``'s pair form; its
    output equals a Fraction computation written by the Fraction
    form, final state and ``--trace`` alike."""

    @pytest.mark.parametrize("name", [
        "six points, three atoms", "deterministic kernel, point start (base 1)",
        "zero initial weight", "initial denominator 10**1500 + 7"])
    def test_output_equals_the_fraction_oracle(self, tmp_path, capsys, name):
        space_doc, matrix, init, steps = _chain(name)
        kernel_doc, init_doc = _chain_docs(space_doc, matrix, init)
        argv = ["markov", "--kernel", write(tmp_path, "k.json", kernel_doc),
                "--init", write(tmp_path, "pi.json", init_doc),
                "--steps", str(steps)]
        want = _oracle_lines(matrix, init, steps)
        assert main(argv + ["--trace"]) == 0
        assert capsys.readouterr().out.splitlines(keepends=True) == want
        assert main(argv) == 0
        assert capsys.readouterr().out == want[-1]

    @pytest.mark.parametrize("atoms", range(1, 17))
    def test_lines_are_the_bytes_of_json_dumps(self, tmp_path, capsys, atoms):
        """Each line is built without ``json``; from 11 atoms on, its keys
        must still sort as strings ("10" before "2")."""
        rng = random.Random(atoms)
        space_doc = _discrete_doc([f"s{i}" for i in range(atoms)])
        matrix = [_random_row(rng, atoms) for _ in range(atoms)]
        init = _random_row(rng, atoms)
        kernel_doc, init_doc = _chain_docs(space_doc, matrix, init)
        argv = ["markov", "--kernel", write(tmp_path, "k.json", kernel_doc),
                "--init", write(tmp_path, "pi.json", init_doc), "--steps", "5"]
        want = _oracle_lines(matrix, init, 5)
        assert main(argv + ["--trace"]) == 0
        assert capsys.readouterr().out.splitlines(keepends=True) == want
        assert main(argv) == 0
        assert capsys.readouterr().out == want[-1]

    @pytest.mark.parametrize("trace, calls", [(True, 8), (False, 1)])
    def test_one_format_call_per_state(self, tmp_path, capsys, monkeypatch,
                                       trace, calls):
        """The benchmark's span on ``format_rational`` counts states: a
        ``--trace`` run over 7 steps writes 8 states, a final-state run 1."""
        seen = []

        def counted(*args):
            seen.append(args)
            return format_rational(*args)

        monkeypatch.setattr(cli, "format_rational", counted)
        space_doc, matrix, init, _ = _chain("six points, three atoms")
        kernel_doc, init_doc = _chain_docs(space_doc, matrix, init)
        argv = ["markov", "--kernel", write(tmp_path, "k.json", kernel_doc),
                "--init", write(tmp_path, "pi.json", init_doc), "--steps", "7"]
        assert main(argv + ["--trace"] * trace) == 0
        assert len(capsys.readouterr().out.splitlines()) == calls == len(seen)


def _directory(tmp_path):
    path = tmp_path / "a-directory"
    path.mkdir()
    return path


def _not_utf8(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe{}")
    return path


def _missing(tmp_path):
    return tmp_path / "missing.json"


class TestUnreadableInput:
    """A missing file, a directory or a file that is not UTF-8, given
    where a file is read, is a named input error (exit 2), not an
    internal one."""

    COMMANDS = {
        "markov --kernel": lambda bad, good: [
            "markov", "--kernel", bad, "--init", good, "--steps", "1"],
        "verify --functional": lambda bad, good: [
            "verify", "naturality", "--functional", bad],
        "report": lambda bad, good: ["report", bad],
        "verify --config": lambda bad, good: [
            "verify", "monad-laws", "--config", bad],
    }

    @pytest.mark.parametrize("make_bad, error", [
        pytest.param(_missing, "error: file {} does not exist\n", id="missing"),
        pytest.param(_directory, "error: cannot read {}: ", id="directory"),
        pytest.param(_not_utf8, "error: {} is not UTF-8 text: ", id="not-utf8")])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_named_error(self, tmp_path, capsys, command, make_bad, error):
        bad = str(make_bad(tmp_path))
        argv = self.COMMANDS[command](bad, write(tmp_path, "pi.json", DELTA_0))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(error.format(bad))


class TestVerify:
    def test_counterexample_suite_passes(self, capsys):
        code = main(["verify", "counterexample", "--trials", "30",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "pass"
        names = {p["property"] for p in doc["properties"]}
        assert "limits-axiom-refuted" in names
        refutation = next(p for p in doc["properties"]
                          if p["property"] == "limits-axiom-refuted")
        assert refutation["witness"]["stuck_at"] == "1/1"

    def test_same_seed_identical_output(self, capsys):
        args = ["verify", "monad-laws", "--trials", "10", "--seed", "7"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_no_floats_anywhere_in_output(self, capsys):
        main(["verify", "all", "--trials", "5", "--seed", "3"])
        out = capsys.readouterr().out
        assert not FLOAT_PATTERN.search(out)

    def test_every_property_carries_a_law(self, capsys):
        main(["verify", "duality", "--trials", "5", "--seed", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert all(p["law"] for p in doc["properties"])

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GIRYLAB_SEED", "99")
        main(["verify", "monad-laws", "--trials", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 99

    def test_junit_is_written_by_report_not_verify(self, tmp_path, capsys):
        junit = tmp_path / "out.xml"
        with pytest.raises(SystemExit) as err:
            main(["verify", "counterexample", "--junit", str(junit)])
        assert err.value.code == 2
        assert "unrecognized arguments: --junit" in capsys.readouterr().err
        assert not junit.exists()

    def test_usage_error_on_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nonsense"])
        assert err.value.code == 2

    def test_internal_error_exits_3_on_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("a bug,\nnot an input error")

        monkeypatch.setattr(cli, "_cmd_verify", broken)
        assert main(["verify", "counterexample"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "internal error: RuntimeError: a bug, not an input error\n"


    def test_closed_stdout_exits_2_on_one_line(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "girylab.cli", "verify", "monad-laws",
             "--trials", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()  # before the command writes anything
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == ("error: standard output was closed before all output "
                       "was written\n")

    def test_closed_stderr_drops_timings_and_exits_0(self, capsys):
        """``--timings`` with the reader of stderr gone: the timing lines
        are dropped, and the whole report still reaches stdout."""
        argv = ["verify", "monad-laws", "--trials", "2", "--timings"]
        assert main(argv) == 0
        report = capsys.readouterr().out
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "girylab.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stderr.close()  # before the command writes anything
        out = proc.stdout.read()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert out == report

    @pytest.mark.parametrize("argv", [
        ["verify", "monad-laws", "--trials", "2"],
        ["report", "/nonexistent"],
        ["markov", "--kernel", "k.json", "--init", "pi.json", "--steps", "3"],
    ], ids=["verify", "report", "markov"])
    def test_closed_stdout_and_stderr_exit_2(self, tmp_path, argv):
        """``girylab ... 2>&1 | head`` with the reader gone: the error line
        cannot be written either, and the exit code stays 2, not 1."""
        write(tmp_path, "k.json", ABSORBING)
        write(tmp_path, "pi.json", DELTA_0)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "girylab.cli", *argv],
                                cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        proc.stdout.close()  # before the command writes anything
        assert proc.wait(timeout=60) == 2

class TestConfigPrecedence:
    def test_config_file_then_flag(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "girylab.cfg"
        cfg.write_text("trials = 7\nseed = 4\n")
        main(["verify", "monad-laws", "--config", str(cfg)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["trials"] == 7 and doc["config"]["seed"] == 4

        main(["verify", "monad-laws", "--config", str(cfg), "--trials", "9"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["trials"] == 9 and doc["config"]["seed"] == 4

    def test_default_config_file_in_cwd(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "girylab.cfg").write_text("max_carrier = 3\ntrials = 6\n")
        main(["verify", "monad-laws"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["max_carrier"] == 3

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "girylab.cfg"
        cfg.write_text("wibble = 3\n")
        code = main(["verify", "monad-laws", "--config", str(cfg)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, config", [
        (["--seed", "3"], ""), ([], "seed = 3\n")], ids=["flag", "config"])
    def test_env_seed_unread_when_the_seed_is_set(self, tmp_path, capsys,
                                                  monkeypatch, flags, config):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIRYLAB_SEED", "abc")
        (tmp_path / "girylab.cfg").write_text(config)
        assert main(["verify", "counterexample", "--trials", "1", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3

    def test_bad_env_seed_named_when_it_is_used(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIRYLAB_SEED", "abc")
        assert main(["verify", "counterexample", "--trials", "1"]) == 2
        assert "GIRYLAB_SEED must be an integer" in capsys.readouterr().err

    def test_comments_and_blank_lines(self, tmp_path, capsys):
        cfg = tmp_path / "girylab.cfg"
        cfg.write_text("# comment\n\ntrials = 8  # inline\n")
        main(["verify", "monad-laws", "--config", str(cfg)])
        assert json.loads(capsys.readouterr().out)["config"]["trials"] == 8


def exit_code(argv) -> int:
    """``main(argv)``'s exit code, argparse's usage errors included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestConfigDigits:
    """Flags, config-file integers and GIRYLAB_SEED are read like JSON
    integers, by ``rational.parse_int``: past rational.MAX_DIGITS digits
    they are named by their size, never echoed whole (exit 2)."""

    def assert_digit_limit(self, capsys, code):
        assert code == 2
        err = capsys.readouterr().err
        assert "5,000 digits" in err and "4,300" in err
        assert "must be an integer" not in err and len(err) < 300

    def test_long_config_integer(self, tmp_path, capsys):
        cfg = tmp_path / "girylab.cfg"
        cfg.write_text("trials = " + "1" * 5000 + "\n")
        self.assert_digit_limit(
            capsys, main(["verify", "monad-laws", "--config", str(cfg)]))

    def test_long_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("GIRYLAB_SEED", "1" * 5000)
        self.assert_digit_limit(capsys, main(["verify", "monad-laws"]))

    def test_long_flag(self, capsys):
        code = exit_code(["verify", "monad-laws", "--seed", "1" * 5000])
        assert code == 2
        err = capsys.readouterr().err
        assert "5,000 digits" in err and "4,300" in err and len(err) < 1000

    def test_env_seed_at_the_limit_runs(self, capsys, monkeypatch):
        seed = "9" * 4300
        monkeypatch.setenv("GIRYLAB_SEED", seed)
        assert main(["verify", "monad-laws", "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == int(seed)

    def test_malformed_config_integer_still_named(self, tmp_path, capsys):
        cfg = tmp_path / "girylab.cfg"
        cfg.write_text("trials = 1/2\n")
        assert main(["verify", "monad-laws", "--config", str(cfg)]) == 2
        assert "trials must be an integer" in capsys.readouterr().err


class TestOneNumberGrammar:
    """Every number a command reads, from a flag, the config file,
    GIRYLAB_SEED or a JSON document, is ASCII digits after an optional
    sign, or ``p/q`` of such integers: ``_``, inner space and digits of
    other scripts are refused with one ``error:`` line."""

    def assert_refused(self, capsys, code):
        assert code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("flags", [
        ["--seed", "\u0661\u0660"], ["--trials", "5_0"]], ids=["seed", "trials"])
    def test_verify_flag(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        self.assert_refused(capsys, exit_code(["verify", "monad-laws", *flags]))

    def test_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIRYLAB_SEED", "1_0")
        self.assert_refused(capsys, exit_code(["verify", "monad-laws",
                                               "--trials", "1"]))

    def test_config_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "girylab.cfg").write_text("seed = \u0661\u0660\n",
                                              encoding="utf-8")
        self.assert_refused(capsys, exit_code(["verify", "monad-laws",
                                               "--trials", "1"]))

    @pytest.mark.parametrize("kernel, init, steps", [
        (ABSORBING, DELTA_0, "\u0661"),
        (dict(ABSORBING, rows={"0": {"0": "1/2", "1": "1/2"},
                               "\u0661": {"1": "1/1"}}), DELTA_0, "1"),
        (dict(ABSORBING, rows={"0": {"0": "\u0661/\u0662", "1": "1/2"},
                               "1": {"1": "1/1"}}), DELTA_0, "1"),
        (ABSORBING, {"space": TWO_STATE, "weights": {"0_1": "1/1"}}, "1"),
    ], ids=["steps", "row-key", "weight", "weights-key"])
    def test_markov_input(self, tmp_path, capsys, kernel, init, steps):
        code = exit_code(["markov", "--kernel", write(tmp_path, "k.json", kernel),
                          "--init", write(tmp_path, "pi.json", init),
                          "--steps", steps])
        self.assert_refused(capsys, code)


class TestConfigSurface:
    """The config keys, their order and the help of each config flag of
    ``girylab verify``, as the parser holds them (not the width-dependent
    ``--help`` layout)."""

    KEYS = ("seed", "trials", "max_carrier", "max_arity", "max_hull_dim")

    HELP = {
        "seed": "suite seed (default GIRYLAB_SEED or 0)",
        "trials": "cases per property (default 500)",
        "max_carrier": "largest generated carrier (default 8, at most 16)",
        "max_arity": "largest affine-map arity (default 4, at most 64)",
        "max_hull_dim": "largest hull dimension (default 3, at most 4)",
    }

    def test_config_keys_in_order(self):
        assert cli.CONFIG_KEYS == self.KEYS

    def test_unknown_key_lists_the_keys(self, tmp_path, capsys):
        cfg = tmp_path / "girylab.cfg"
        cfg.write_text("trials = 3\nmax-points = 3\n")
        assert main(["verify", "monad-laws", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: unknown key 'max_points'; expected one of "
            "seed, trials, max_carrier, max_arity, max_hull_dim\n")

    def test_verify_flag_help(self):
        sub = next(a for a in cli.build_parser()._actions
                   if a.dest == "command")
        verify = sub.choices["verify"]
        flags = [a for a in verify._actions if a.dest in self.KEYS]
        assert [a.dest for a in flags] == list(self.KEYS)
        for action in flags:
            assert action.option_strings == [
                "--" + action.dest.replace("_", "-")]
            assert (action.type, action.default) == (cli._int_flag, None)
            assert action.help == self.HELP[action.dest]


class TestConfigCaps:
    @pytest.mark.parametrize("flags, message", [
        (["--max-carrier", "17"], "max_carrier must be at most 16, got 17"),
        (["--max-carrier", "10000"],
         "max_carrier must be at most 16, got 10000"),
        (["--max-hull-dim", "5"], "max_hull_dim must be at most 4, got 5"),
        (["--max-hull-dim", "50"], "max_hull_dim must be at most 4, got 50"),
        (["--max-arity", "65"], "max_arity must be at most 64, got 65"),
        (["--max-arity", "1000000000"],
         "max_arity must be at most 64, got 1000000000"),
    ])
    def test_over_cap_is_a_named_error(self, tmp_path, capsys, monkeypatch,
                                       flags, message):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "monad-laws", "--trials", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_over_cap_in_the_config_file_is_a_named_error(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "girylab.cfg"
        cfg.write_text("max_arity = 65\n")
        assert main(["verify", "naturality", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            "error: max_arity must be at most 64, got 65\n"

    @pytest.mark.parametrize("suite", ["monad-laws", "convex-bound",
                                       "naturality"])
    def test_at_cap_runs(self, tmp_path, capsys, monkeypatch, suite):
        monkeypatch.chdir(tmp_path)
        code = main(["verify", suite, "--trials", "3", "--seed", "5",
                     "--max-carrier", "16", "--max-hull-dim", "4",
                     "--max-arity", "64"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["result"] == "pass"
        assert (doc["config"]["max_carrier"], doc["config"]["max_hull_dim"],
                doc["config"]["max_arity"]) == (16, 4, 64)


class TestUserFunctionalNaturality:
    def test_extensional_streams_passes(self, tmp_path, capsys):
        space = {"carrier": ["a", "b"], "generators": [["a"], ["b"]]}
        phi = {"kind": "extensional",
               "coefficients": {"0": "1/3", "1": "2/3"}}
        code = main(["verify", "naturality",
                     "--space", write(tmp_path, "s.json", space),
                     "--functional", write(tmp_path, "phi.json", phi),
                     "--trials", "25", "--seed", "2"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        docs = [json.loads(line) for line in out]
        assert docs[-1]["result"] == "pass"
        assert all(d["result"] == "pass" for d in docs[:-1])
        # Each case line is the verdict of one square.
        assert [d["trials"] for d in docs[:-1]] == [1] * 25

    def test_max_streams_failures_with_witnesses(self, tmp_path, capsys):
        space = {"carrier": ["a", "b"], "generators": [["a"], ["b"]]}
        phi = {"kind": "max"}
        code = main(["verify", "naturality",
                     "--space", write(tmp_path, "s.json", space),
                     "--functional", write(tmp_path, "phi.json", phi),
                     "--trials", "40", "--seed", "2"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 1
        docs = [json.loads(line) for line in out]
        failures = [d for d in docs[:-1] if d["result"] == "fail"]
        assert failures
        assert all("h" in d["witness"] and "residual" in d["witness"]
                   for d in failures)
        assert [d["trials"] for d in docs[:-1]] == [1] * 40
        assert docs[-1]["result"] == "fail"

    def test_inlined_space_must_be_the_supplied_one(self, tmp_path, capsys):
        space = {"carrier": ["a", "b"], "generators": [["a"], ["b"]]}
        phi = {"kind": "max",
               "space": {"carrier": ["b", "a"], "generators": [["a"], ["b"]]}}
        code = main(["verify", "naturality",
                     "--space", write(tmp_path, "s.json", space),
                     "--functional", write(tmp_path, "phi.json", phi),
                     "--trials", "5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: functional document's space (carrier ['b', 'a'], atoms "
            "[['b'], ['a']]) is not the space the command supplies (carrier "
            "['a', 'b'], atoms [['a'], ['b']])\n")

    @pytest.mark.parametrize("carrier, message", [
        ([], "carrier must be nonempty"),
        (["a", "a"], "carrier labels must be distinct"),
    ], ids=["empty", "repeated"])
    def test_bad_space_carrier_exits_2(self, tmp_path, capsys, carrier,
                                       message):
        space = {"carrier": carrier, "generators": []}
        code = main(["verify", "naturality",
                     "--space", write(tmp_path, "s.json", space),
                     "--functional", write(tmp_path, "phi.json", {"kind": "max"}),
                     "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: space: {message}\n"

    @pytest.mark.parametrize("kind", [["max"], {"a": 1}])
    def test_kind_that_is_not_a_string_exits_2(self, tmp_path, capsys, kind):
        code = main(["verify", "naturality",
                     "--space", write(tmp_path, "s.json", TWO_STATE),
                     "--functional", write(tmp_path, "phi.json", {"kind": kind}),
                     "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: functional 'kind' must be a string, "
                                f"got {type(kind).__name__}\n")

    def test_functional_requires_naturality_suite(self, tmp_path, capsys):
        phi = {"kind": "max",
               "space": {"carrier": ["a"], "generators": []}}
        code = main(["verify", "duality",
                     "--functional", write(tmp_path, "phi.json", phi)])
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--space", "s.json"], "--space applies only with --functional"),
        (["--timings", "--functional", "phi.json"],
         "--timings applies only without --functional"),
    ])
    def test_ignored_flags_rejected(self, tmp_path, capsys, monkeypatch,
                                    flags, message):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "s.json", {"carrier": ["a", "b"],
                                   "generators": [["a"], ["b"]]})
        write(tmp_path, "phi.json", {"kind": "max"})
        assert main(["verify", "naturality", "--trials", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestReport:
    def test_merge_and_exit_codes(self, tmp_path, capsys):
        main(["verify", "counterexample", "--trials", "5", "--seed", "1"])
        good = capsys.readouterr().out
        path = tmp_path / "good.json"
        path.write_text(good)
        code = main(["report", str(path), str(path)])
        merged = json.loads(capsys.readouterr().out)
        assert code == 0
        assert merged["result"] == "pass"
        assert len(merged["reports"]) == 2

    def test_junit_format(self, tmp_path, capsys):
        main(["verify", "counterexample", "--trials", "5", "--seed", "1"])
        path = tmp_path / "r.json"
        path.write_text(capsys.readouterr().out)
        code = main(["report", str(path), "--format", "junit"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("<?xml")
        assert "<testsuite" in out and "testcase" in out
        assert 'failures="0"' in out

    def test_deeply_nested_json_named(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text("[" * 100000)
        assert main(["report", str(path)]) == 2
        assert "too deeply" in capsys.readouterr().err

    def test_non_object_report_named(self, tmp_path, capsys):
        code = main(["report", write(tmp_path, "r.json", [1, 2])])
        assert code == 2
        assert "expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"properties": [1]}, {"properties": "all"}, {"properties": [{}, None]}])
    def test_junit_rejects_malformed_properties(self, tmp_path, capsys, doc):
        code = main(["report", write(tmp_path, "r.json", doc),
                     "--format", "junit"])
        assert code == 2
        assert "'properties' must be a list of objects" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "junit"])
    @pytest.mark.parametrize("doc", [
        pytest.param({"a": 1}, id="no-result"),
        pytest.param({"properties": [{"property": "p", "result": "fail"}]},
                     id="properties-without-result"),
        pytest.param({"properties": [], "result": "refuted"}, id="other-result"),
        pytest.param({"properties": [], "result": None}, id="null-result")])
    def test_document_without_a_result_is_not_a_report(self, tmp_path,
                                                       capsys, doc, fmt):
        code = main(["report", write(tmp_path, "r.json", doc),
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "r.json is not a report: 'result' must be" in captured.err

    @pytest.mark.parametrize("fmt", ["json", "junit"])
    @pytest.mark.parametrize("field, token", [
        pytest.param('"trials": 0.5', "0.5", id="float"),
        pytest.param('"witness": {"a": 1e400}', "1e400", id="float-past-range"),
        pytest.param('"witness": NaN', "NaN", id="nan"),
        pytest.param('"witness": [-Infinity]', "-Infinity", id="infinity")])
    def test_float_is_not_a_report(self, tmp_path, capsys, field, token, fmt):
        path = tmp_path / "r.json"
        path.write_text('{"result": "fail", "properties": [{"property": "p", '
                        f'"result": "fail", {field}}}]}}')
        code = main(["report", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: {path} is not a report: it holds the number {token!r}, "
            "but a report writes every number as an int or a 'p/q' string\n")

    @pytest.mark.parametrize("fmt", ["json", "junit"])
    def test_own_reports_and_merged_output_accepted(self, tmp_path, capsys,
                                                    fmt):
        main(["verify", "counterexample", "--trials", "5", "--seed", "1"])
        report = write(tmp_path, "r.json", json.loads(capsys.readouterr().out))
        assert main(["report", report, report]) == 0
        merged = write(tmp_path, "m.json", json.loads(capsys.readouterr().out))
        failed = write(tmp_path, "f.json", {"properties": [], "result": "fail"})
        assert main(["report", merged, report, "--format", fmt]) == 0
        assert main(["report", merged, failed, "--format", fmt]) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["json", "junit"])
    @pytest.mark.parametrize("doc, derived", [
        pytest.param({"result": "pass", "properties": [
            {"property": "p", "result": "pass"},
            {"property": "q", "result": "fail"}]}, "fail", id="pass-with-fail"),
        pytest.param({"result": "pass", "properties": [
            {"property": "p", "result": "error"}]}, "fail", id="pass-with-other"),
        pytest.param({"result": "fail", "properties": [
            {"property": "p", "result": "pass"}]}, "pass", id="fail-all-pass")])
    def test_result_must_agree_with_properties(self, tmp_path, capsys, doc,
                                               derived, fmt):
        code = main(["report", write(tmp_path, "r.json", doc),
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert (f"r.json is not a report: 'result' is {doc['result']!r}, "
                f"but its properties say {derived!r}") in captured.err

    @pytest.mark.parametrize("fmt", ["json", "junit"])
    def test_merged_report_rechecked(self, tmp_path, capsys, fmt):
        failing = {"suite": "s", "result": "fail", "properties": [
            {"property": "p", "result": "fail", "law": "l", "witness": None}]}
        main(["report", write(tmp_path, "f.json", failing)])
        merged = json.loads(capsys.readouterr().out)
        assert merged["result"] == "fail"
        edited = write(tmp_path, "m.json", dict(merged, result="pass"))
        nested = write(tmp_path, "n.json",
                       {"result": "pass", "reports": [json.loads(
                           Path(edited).read_text())]})
        for path, where in ((edited, "m.json"), (nested, "n.json reports[0]")):
            code = main(["report", path, "--format", fmt])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert (f"{where} is not a report: 'result' is 'pass', but its "
                    "reports say 'fail'") in captured.err

    @pytest.mark.parametrize("doc, error", [
        pytest.param({"result": "pass", "reports": "all"},
                     "'reports' must be a list", id="reports-not-a-list"),
        pytest.param({"result": "pass", "reports": [[]]},
                     "reports[0] is not a report: expected a JSON object",
                     id="entry-not-an-object"),
        pytest.param({"result": "pass", "reports": [], "properties": []},
                     "both 'properties' and 'reports'", id="both")])
    def test_malformed_merged_report_named(self, tmp_path, capsys, doc, error):
        assert main(["report", write(tmp_path, "m.json", doc)]) == 2
        assert error in capsys.readouterr().err

    def test_junit_writes_the_suites_a_merged_report_holds(self, tmp_path,
                                                           capsys):
        failing = write(tmp_path, "f.json", {
            "suite": "s", "result": "fail", "properties": [
                {"property": "p", "result": "fail", "law": "l", "witness": 1},
                {"property": "q", "result": "pass"}]})
        main(["report", failing, failing])
        merged = write(tmp_path, "m.json", json.loads(capsys.readouterr().out))
        assert main(["report", merged, "--format", "junit"]) == 1
        out = capsys.readouterr().out
        assert out.count('<testsuite name="s" tests="2" failures="1"') == 2
        assert out.count("<testsuites>") == 1

    def test_junit_quotes_non_string_names(self, tmp_path, capsys):
        doc = {"suite": 3, "result": "fail", "properties": [
            {"property": 4, "result": "fail", "law": None, "witness": [1]}]}
        code = main(["report", write(tmp_path, "r.json", doc),
                     "--format", "junit"])
        assert code == 1
        out = capsys.readouterr().out
        assert '<testsuite name="3"' in out and 'name="4"' in out

    @pytest.mark.parametrize("char", [
        pytest.param("\x01", id="control"),
        pytest.param("\ud800", id="lone-surrogate"),
        pytest.param("\ufffe", id="noncharacter")])
    @pytest.mark.parametrize("doc, field", [
        pytest.param(lambda c: {"suite": f"s{c}", "result": "pass",
                                "properties": []},
                     "'suite'", id="suite"),
        pytest.param(lambda c: {"suite": "s", "result": "pass", "properties": [
            {"property": "p", "result": "pass"},
            {"property": f"q{c}", "result": "pass"}]},
                     "properties[1] 'property'", id="property"),
        pytest.param(lambda c: {"result": "fail", "reports": [
            {"suite": "s", "result": "fail", "properties": [
                {"property": "p", "result": "fail", "law": c}]}]},
                     "reports[0] properties[0] 'law'", id="nested-law")])
    def test_junit_refuses_text_outside_xml(self, tmp_path, capsys, char,
                                            doc, field):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc(char)))
        code = main(["report", str(path), "--format", "junit"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: {path} {field} holds {ascii(char)}, "
                                "which XML 1.0 cannot represent\n")

    def test_junit_output_parses(self, tmp_path, capsys):
        from xml.dom import minidom
        text = "tab\tnewline\n<&>\"'\u00e9\U0001f600"
        doc = {"suite": text, "result": "fail", "properties": [
            {"property": text, "result": "fail", "law": text,
             "witness": {"w": "\x01\ud800"}}]}
        code = main(["report", write(tmp_path, "r.json", doc),
                     "--format", "junit"])
        assert code == 1
        suite = minidom.parseString(
            capsys.readouterr().out.encode()).documentElement
        case = suite.getElementsByTagName("testcase")[0]
        failure = case.getElementsByTagName("failure")[0]
        assert suite.getAttribute("name") == text
        assert case.getAttribute("name") == text
        assert failure.getAttribute("message") == text
        assert json.loads(failure.firstChild.data) == {"w": "\x01\ud800"}


class TestXmlEscape:
    """``cli`` writes JUnit XML with ``xml.sax.saxutils``, imported only
    on that path, so its import stays out of start-up."""

    def test_cli_import_leaves_xml_out(self):
        code = ("import sys, girylab.cli; print(sorted(m for m in "
                "('xml', 'xml.sax.saxutils', 'urllib.request') "
                "if m in sys.modules))")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestStartup:
    """Every girylab module but ``cli`` is registered lazily, so a command
    runs only the modules it uses.  A module counts as run once its type
    is ``types.ModuleType``: ``type()`` does not trigger a lazy load."""

    VERIFY_ONLY = {"harness", "codensity", "hull", "counterexample",
                   "duality", "verdicts"}

    RAN = ("import json, sys, types; from girylab import cli; "
           "code = cli.main(sys.argv[1:]); "
           "print(json.dumps(sorted(n.partition('.')[2] for n, m in "
           "sys.modules.items() if n.startswith('girylab.') "
           "and type(m) is types.ModuleType))); sys.exit(code)")

    @staticmethod
    def run(*args):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def ran(self, *argv) -> set:
        proc = self.run("-c", self.RAN, *argv)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    def test_markov_skips_the_verify_modules(self, tmp_path):
        ran = self.ran("markov", "--kernel", write(tmp_path, "k.json", ABSORBING),
                       "--init", write(tmp_path, "pi.json", DELTA_0),
                       "--steps", "3")
        assert "monad" in ran and "jsonio" in ran
        assert ran.isdisjoint(self.VERIFY_ONLY)

    def test_report_runs_only_what_it_reads(self, tmp_path):
        doc = {"suite": "s", "result": "pass", "properties": []}
        ran = self.ran("report", write(tmp_path, "r.json", doc),
                       "--format", "junit")
        assert ran == {"cli", "config", "errors", "rational", "spaces"}

    def test_verify_all_runs_every_module(self):
        ran = self.ran("verify", "all", "--trials", "1")
        assert self.VERIFY_ONLY <= ran

    #: What a girylab process never imports: ``dataclasses`` and the
    #: ``inspect`` it brings in cost about 15 ms of start-up.
    SLOW_IMPORTS = ("dataclasses", "inspect")

    LEFT_OUT = ("import sys; print(sorted(m for m in {!r} "
                "if m in sys.modules))").format(SLOW_IMPORTS)

    #: Runs the command line given after ``-c``, then prints ``LEFT_OUT``.
    MAIN_LEFT_OUT = ("import sys; from girylab import cli; "
                     "code = cli.main(sys.argv[1:]); " + LEFT_OUT
                     + "; sys.exit(code)")

    @pytest.mark.parametrize("trace", [False, True], ids=["final", "trace"])
    def test_markov_imports_no_dataclasses(self, tmp_path, trace):
        proc = self.run("-c", self.MAIN_LEFT_OUT, "markov",
                        "--kernel", write(tmp_path, "k.json", ABSORBING),
                        "--init", write(tmp_path, "pi.json", DELTA_0),
                        "--steps", "3", *(["--trace"] if trace else []))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_verify_all_imports_no_dataclasses(self):
        proc = self.run("-c", self.MAIN_LEFT_OUT, "verify", "all",
                        "--trials", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_certified_integral_imports_no_dataclasses(self):
        code = ("import girylab.cli; from fractions import Fraction; "
                "from girylab import jsonio, measures; "
                "m = jsonio.interval_measure_from_json({'points': "
                "[['1/3', '1/2']], 'uniform': [['0/1', '1/1', '1/2']]}); "
                "print(measures.integrate_approx_bounds(lambda x: x * x, "
                "lambda e: e / 2, Fraction(1, 64), m)); " + self.LEFT_OUT)
        proc = self.run("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_module_entry_point_does_not_warn(self):
        proc = self.run("-m", "girylab.cli", "--help")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("usage: girylab")
