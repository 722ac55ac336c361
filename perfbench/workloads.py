"""The benchmark's workloads: seeded inputs, the process each runs, and the
check of that process's output.

Inputs come only from the seed.  The checks are independent of the code
under test: verify-all against a golden digest or against its own
repeat, the Markov chains against an integer-vector oracle here, and the
certified integrals against their closed forms.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from girylab.harness import generate_kernel, generate_measure
from girylab.spaces import FinSpace

#: ``girylab verify all --seed 7 --trials 500`` under Python 3.11.7.
GOLDEN_SEED = 7
GOLDEN_SHA256 = "80fc569c6bdf6c740b6e920ae368a95140b1e8706cfdef8ecaed44febcb2a099"

MARKOV_STATES = 8
MARKOV_FINAL_STEPS = 800
MARKOV_TRACE_STEPS = 400

INTEGRATE_EPS = Fraction(1, 1024)
INTEGRATE_MIXTURES = 12

#: Spans each workload must fire in a traced run, so that a name rebound
#: out of the tracer's reach shows as a failure instead of a zero.
_MARKOV_SPANS = ("monad.bind", "measures.Measure", "jsonio.ingest",
                 "rational.format_rational")
_SUITES = ("monad-laws", "duality", "change-of-variables", "naturality",
           "monoid-reduction", "convex-bound", "counterexample")


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class Workload:
    name = ""
    spans: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def make_inputs(self, directory: Path) -> None:
        """Write this seed's input files into ``directory``."""

    def argv(self, directory: Path) -> list:
        """Arguments of ``launch.py`` for one workload process."""
        raise NotImplementedError

    def prepare_check(self) -> None:
        """Compute what ``check`` compares against (not timed)."""

    def check(self, stdout: bytes) -> str | None:
        """None if the output is right, else what is wrong with it."""
        raise NotImplementedError


class VerifyAll(Workload):
    name = "verify-all"
    spans = ("hull.hull_membership", "spaces.generate_sigma",
             "codensity.functional_from_action", "codensity.check_naturality",
             "duality.Functional.call", "duality.to_measure",
             "measures.Measure", "spaces.IFunction", "measures.pushforward",
             "monad.flatten", "monad.bind", "rational.format_rational",
             "harness.generate") + tuple(f"harness.suite.{s}" for s in _SUITES)

    trials = 500

    def argv(self, directory):
        return ["cli", "verify", "all", "--seed", str(self.seed),
                "--trials", str(self.trials)]

    def check(self, stdout):
        digest = hashlib.sha256(stdout).hexdigest()
        if self.seed == GOLDEN_SEED and digest != GOLDEN_SHA256:
            return f"report sha256 {digest} is not the golden {GOLDEN_SHA256}"
        try:
            result = json.loads(stdout)["result"]
        except (ValueError, KeyError, TypeError):
            return "report is not a JSON object with a result"
        if result != "pass":
            return f"report result is {result!r}"
        return None


def markov_inputs(seed: int):
    """The 8-state kernel of ``generate_kernel`` on ``random.Random(1)``
    (the kernel of defect D1 in ROADMAP.md), its states permuted by the
    seed, and an initial measure drawn from the seed.

    The kernel fixes how fast the denominators grow, so every seed costs
    about the same; the seed changes the numbers, not the amount of work.
    """
    space = FinSpace.discrete([f"s{i}" for i in range(MARKOV_STATES)])
    kernel = generate_kernel(random.Random(1), space, space)
    rng = random.Random(seed)
    perm = list(range(MARKOV_STATES))
    rng.shuffle(perm)
    matrix = [[kernel.rows[perm[i]].weights[perm[j]]
               for j in range(MARKOV_STATES)] for i in range(MARKOV_STATES)]
    init = list(generate_measure(rng, space).weights)
    return space, matrix, init


def markov_oracle(matrix, init, steps: int, every: bool) -> bytes:
    """Expected ``girylab markov`` output, computed as integer vectors over
    one common denominator per step, without girylab.monad."""
    scale = lcm(*(w.denominator for row in matrix for w in row))
    ints = [[int(w * scale) for w in row] for row in matrix]
    den = lcm(*(w.denominator for w in init))
    vec = [int(w * den) for w in init]
    n = len(vec)
    lines = []
    for step in range(steps + 1):
        if every or step == steps:
            weights = {}
            for j, num in enumerate(vec):
                g = gcd(num, den)
                weights[str(j)] = f"{num // g}/{den // g}"
            lines.append(json.dumps({"step": step, "weights": weights},
                                    sort_keys=True) + "\n")
        if step == steps:
            break
        vec = [sum(vec[i] * ints[i][j] for i in range(n)) for j in range(n)]
        den *= scale
        g = gcd(den, *vec)
        vec = [v // g for v in vec]
        den //= g
    return "".join(lines).encode()


class Markov(Workload):
    steps = 0
    every = False
    spans = _MARKOV_SPANS

    def make_inputs(self, directory):
        space, matrix, init = markov_inputs(self.seed)
        space_doc = {"carrier": list(space.carrier),
                     "generators": [[label] for label in space.carrier]}
        kernel = {"dom": space_doc, "cod": space_doc,
                  "rows": {str(i): {str(j): _fmt(w) for j, w in enumerate(row)}
                           for i, row in enumerate(matrix)}}
        measure = {"space": space_doc,
                   "weights": {str(j): _fmt(w) for j, w in enumerate(init)}}
        (directory / "kernel.json").write_text(json.dumps(kernel))
        (directory / "init.json").write_text(json.dumps(measure))

    def argv(self, directory):
        argv = ["cli", "markov", "--kernel", str(directory / "kernel.json"),
                "--init", str(directory / "init.json"), "--steps", str(self.steps)]
        return argv + ["--trace"] if self.every else argv

    def prepare_check(self):
        _, matrix, init = markov_inputs(self.seed)
        self.expected = hashlib.sha256(
            markov_oracle(matrix, init, self.steps, self.every)).hexdigest()

    def check(self, stdout):
        if hashlib.sha256(stdout).hexdigest() != self.expected:
            return "markov output differs from the exact oracle"
        return None


class MarkovFinal(Markov):
    name = "markov-final"
    steps = MARKOV_FINAL_STEPS


class MarkovTrace(Markov):
    name = "markov-trace"
    steps = MARKOV_TRACE_STEPS
    every = True


def integrate_mixtures(seed: int):
    """Point/uniform mixtures like those of acceptance criterion 8, with a
    fixed shape: two point masses and two uniform pieces of width 1/2.

    The integrator's work grows with the number of grid cells inside each
    piece, so fixing the widths makes every seed cost the same; the seed
    picks the locations, offsets and masses."""
    rng = random.Random(seed)
    mixtures = []
    for _ in range(INTEGRATE_MIXTURES):
        weights = [rng.randint(1, 5) for _ in range(4)]
        total = sum(weights)
        points, pieces = [], []
        for w in weights[:2]:
            den = rng.randint(1, 16)
            points.append((Fraction(rng.randint(0, den), den), Fraction(w, total)))
        for w in weights[2:]:
            lo = rng.randint(0, 8)
            pieces.append((Fraction(lo, 16), Fraction(lo + 8, 16), Fraction(w, total)))
        mixtures.append((points, pieces))
    return mixtures


def exact_integrals(points, pieces) -> dict:
    """Closed-form integrals of x and x^2 against a point/uniform mixture."""
    linear = sum((m * x for x, m in points), Fraction(0)) + sum(
        (m * (a + b) / 2 for a, b, m in pieces), Fraction(0))
    square = sum((m * x * x for x, m in points), Fraction(0)) + sum(
        (m * (a * a + a * b + b * b) / 3 for a, b, m in pieces), Fraction(0))
    return {"x": linear, "x^2": square}


class IntegrateCertified(Workload):
    name = "integrate-certified"
    spans = ("measures.integrate_approx_bounds", "jsonio.ingest")

    def make_inputs(self, directory):
        doc = {"eps": _fmt(INTEGRATE_EPS), "mixtures": [
            {"points": [[_fmt(x), _fmt(m)] for x, m in points],
             "uniform": [[_fmt(a), _fmt(b), _fmt(m)] for a, b, m in pieces]}
            for points, pieces in integrate_mixtures(self.seed)]}
        (directory / "mixtures.json").write_text(json.dumps(doc))

    def argv(self, directory):
        return ["integrate", str(directory / "mixtures.json")]

    def prepare_check(self):
        self.exact = [exact_integrals(points, pieces)
                      for points, pieces in integrate_mixtures(self.seed)]

    def check(self, stdout):
        try:
            rows = [json.loads(line) for line in stdout.splitlines()]
            seen = {(r["mixture"], r["integrand"]):
                    (Fraction(r["lo"]), Fraction(r["hi"])) for r in rows}
        except (ValueError, KeyError, TypeError):
            return "integrator output is not one JSON bound pair per line"
        wanted = {(i, f) for i, e in enumerate(self.exact) for f in e}
        if set(seen) != wanted or len(rows) != len(wanted):
            return "integrator output does not cover every mixture and integrand once"
        for (i, f), (lo, hi) in seen.items():
            exact = self.exact[i][f]
            if not lo <= exact <= hi:
                return f"mixture {i}, {f}: exact {exact} outside [{lo}, {hi}]"
            if hi - lo > INTEGRATE_EPS:
                return f"mixture {i}, {f}: bracket {hi - lo} wider than eps"
        return None


WORKLOADS = {w.name: w for w in (VerifyAll, MarkovFinal, MarkovTrace,
                                 IntegrateCertified)}
