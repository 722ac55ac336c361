"""JSON readers: the values each document gives, and invariant-naming
ingestion errors."""

import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

from girylab import rational
from girylab.errors import (DigitLimitError, GirylabError, IngestionError,
                            InvariantError)
from girylab.spaces import FinSpace, generate_sigma
from girylab.measures import IntervalMeasure, Measure
from girylab.monad import (DECIMAL_INTEGERS, Kernel, _common_factor,
                           _lowest_pairs)
from girylab.duality import Functional
from girylab.jsonio import (functional_from_json, interval_measure_from_json,
                            kernel_from_json, measure_from_json,
                            space_from_json)
from girylab.rational import (MAX_DIGITS, format_rational, parse_int,
                              parse_rational, probability_numerators)

F = Fraction


class TestRationalStrings:
    def test_format_always_carries_denominator(self):
        assert format_rational(F(1)) == "1/1"
        assert format_rational(F(0)) == "0/1"
        assert format_rational(F(3, 4)) == "3/4"

    def test_parse_roundtrip(self):
        for s in ("1/1", "0/1", "22/7", "5"):
            assert format_rational(parse_rational(s)) == \
                format_rational(F(s))

    def test_decimals_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("0.5")
        with pytest.raises(ValueError):
            parse_rational("1e-3")

    # Fraction reads '_' from Python 3.11 on and spaces around '/' from
    # 3.12 on, and int() and Fraction() read digits of every script;
    # parse_rational reads ASCII digits only, on every Python.
    # A text's grammar is checked before its digits are counted: a long
    # numerator over a malformed denominator cannot be parsed either.
    @pytest.mark.parametrize("text", [
        "5_00/1000", "1 / 2", " 1/ 2 ", "\u0661/\u0662", "1/\u0662", "1/+2",
        pytest.param("9" * 5000 + "/x", id="long-p/x"),
        pytest.param("x/" + "9" * 5000, id="x/long-q")])
    def test_one_grammar_on_every_python(self, text):
        with pytest.raises(ValueError,
                           match="^cannot parse rational .* expected 'p/q'"):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1_0", "\u0661\u0660", "1 0", "--1"])
    def test_int_grammar(self, text):
        with pytest.raises(ValueError, match="^cannot parse integer"):
            parse_int(text)

    @pytest.mark.parametrize("text, value", [
        (" -3/4 ", F(-3, 4)), ("+1/2", F(1, 2)), ("007/010", F(7, 10)),
        ("5", F(5)), (" 7", F(7))])
    def test_read_as_before(self, text, value):
        assert parse_rational(text) == value
        if "/" not in text:
            assert parse_int(text) == value


class TestLowestTerms:
    """The pair form ``format_rational([(n, d), ...])`` writes each pair as
    given; the pairs ``monad._lowest_pairs`` reduces from a base, as
    ``monad.markov_weights`` does, are written as
    ``format_rational(Fraction(n, den))`` writes each weight, on ints and
    integral Decimals alike; ``_common_factor`` finds what one gcd finds,
    on both alike."""

    BASES = [2, 6, 12, 360, 2 ** 3 * 3 ** 2 * 7, 30 * 49 * 11 ** 3, 97]

    @staticmethod
    def states(base):
        """Seeded ``(nums, den)`` with denominators made of powers of
        ``base``'s primes, and numerators from 0 to ``den``."""
        rng = random.Random(base)
        primes = [p for p in range(2, base + 1)
                  if base % p == 0 and all(p % q for q in range(2, p))]
        for _ in range(40):
            den = prod(p ** rng.randint(0, 12) for p in primes)
            ns = {0, 1, den - 1, den} | {rng.randint(0, den) for _ in range(30)}
            yield sorted(ns), den

    @staticmethod
    def written(nums, den, base):
        """What ``markov`` writes for ``nums`` over ``den``."""
        return format_rational(_lowest_pairs(nums, den, base))

    @pytest.mark.parametrize("base", BASES)
    def test_base_form_equals_the_fraction_form(self, base):
        for nums, den in self.states(base):
            want = [format_rational(F(n, den)) for n in nums]
            assert self.written(nums, den, base) == want
            assert self.written(nums[::-1], den, base) == want[::-1]
            for n, s in zip(nums, want):
                assert self.written([n], den, base) == [s]

    @pytest.mark.parametrize("base", BASES)
    def test_decimal_form_equals_the_int_form(self, base):
        for nums, den in self.states(base):
            pairs = _lowest_pairs(list(map(Decimal, nums)), Decimal(den), base)
            assert all(type(x) is Decimal for pair in pairs for x in pair)
            assert format_rational(pairs) == self.written(nums, den, base)
            assert format_rational([(Decimal(nums[-1]), Decimal(den))]) == \
                format_rational([(nums[-1], den)])

    def test_decimal_negative_zero_is_written_as_zero(self):
        assert format_rational([(Decimal("-0"), Decimal(8))]) == ["0/8"]
        assert self.written([Decimal("-0")], Decimal(8), 2) == ["0/1"]
        assert self.written([Decimal(-6)], Decimal(8), 2) == ["-3/4"]
        assert self.written([Decimal(2), Decimal("-0"), Decimal(-6)],
                            Decimal(8), 2) == ["1/4", "0/1", "-3/4"]

    def test_common_factor_of_a_high_power(self):
        den = 2 ** 5000 * 3 ** 7
        nums = [2 ** 4999, 3 * 2 ** 4000, 2 ** 4999 * 3, 1]
        want = [format_rational(F(n, den)) for n in nums]
        assert want[0] == "1/4374"
        assert self.written(nums, den, 6) == want
        assert _lowest_pairs([2 ** 4999], den, 6) == [(1, 4374)]
        assert self.written([Decimal(2 ** 4999)], Decimal(den), 6) == \
            ["1/4374"]

    @staticmethod
    def common_factor(nums, den, base):
        """``_common_factor`` of the ints, and of the same values as
        integral Decimals under ``DECIMAL_INTEGERS``, which must agree."""
        got = _common_factor(nums, den, base)
        with localcontext(DECIMAL_INTEGERS):
            assert _common_factor(list(map(Decimal, nums)), Decimal(den),
                                  base) == got
        return got

    @pytest.mark.parametrize("base", BASES)
    def test_vector_reduction_from_the_base_equals_one_gcd(self, base):
        """``_common_factor`` on a whole vector, as ``monad.decimal_states``
        reduces a state, finds what one ``gcd(den, *nums)`` finds, also
        when the common factor holds a higher power of a prime than the
        base."""
        rng = random.Random(-base)
        for _, den in self.states(base):
            cuts = sorted(rng.randint(0, den) for _ in range(rng.randint(0, 7)))
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
            for scale in (1, den, base ** 30):
                nums = [n * scale for n in parts]
                want = gcd(den * scale, *nums)
                assert want == scale * gcd(den, *parts)
                assert self.common_factor(nums, den * scale, base) == want

    def test_vector_reduction_of_a_high_power(self):
        den = 2 ** 5000 * 3 ** 7
        nums = [2 ** 4999, 2 ** 4999 * 3, den - 2 ** 5001]
        assert self.common_factor(nums, den, 6) == gcd(den, *nums) == 2 ** 4999
        assert probability_numerators(nums, den, "weights") == \
            ((1, 3, 2 * 3 ** 7 - 4), 2 * 3 ** 7)

    @pytest.mark.parametrize("n, den, base, want", [
        (0, 1, 1, "0/1"), (1, 1, 1, "1/1"), (5, 1, 1, "5/1"),
        (0, 2 ** 40, 2, "0/1"), (2 ** 40, 2 ** 40, 2, "1/1"),
        (-6, 8, 2, "-3/4"), (7, 10 ** 30, 10, f"7/{10 ** 30}"),
        (3, 12, 12, "1/4"), (8, 36, 6, "2/9"),
    ])
    def test_edges(self, n, den, base, want):
        assert self.written([n], den, base) == [want]
        assert want == format_rational(F(n, den))

    @pytest.mark.parametrize("den", [0, -4, Decimal(0), Decimal(-4)])
    def test_nonpositive_denominator_rejected(self, den):
        with pytest.raises(InvariantError, match="must be positive"):
            format_rational([(1, den)])
        with pytest.raises(InvariantError, match="must be positive"):
            format_rational([(1, 2), (1, den)])

    @pytest.mark.parametrize("pairs, want", [
        ([], []), ([(6, 8)], ["6/8"]), ([(0, 5), (5, 5)], ["0/5", "5/5"]),
        ([(Decimal(6), Decimal(8)), (1, Decimal(3))], ["6/8", "1/3"])])
    def test_pairs_are_written_as_given(self, pairs, want):
        """The pair form checks and writes; reducing is the caller's."""
        assert format_rational(pairs) == want

    def test_digit_limit_message_of_the_pair_form(self):
        big = 10 ** MAX_DIGITS
        for pairs in [[(big, 3)], [(-big, 3)], [(1, 3), (big, 3)],
                      [(1, 3 * big)], [(Decimal(big), Decimal(3))],
                      [(Decimal(-big), 3)], [(1, Decimal(3 * big))]]:
            with pytest.raises(DigitLimitError) as info:
                format_rational(pairs)
            assert str(info.value) == (
                "rational to format has 4,301 digits, more than the limit "
                "of 4,300 (rational.MAX_DIGITS)")
        # reduced first, as markov_weights does
        assert self.written([big, 2 * big], 2 * big, 10) == ["1/2", "1/1"]


class TestDigitLimit:
    """Numerators and denominators are capped at MAX_DIGITS decimal digits
    on parse; a rational past the cap is written as its size."""

    def test_format_at_and_past_the_limit(self):
        at = 10 ** MAX_DIGITS - 1
        assert format_rational(F(1, at)) == "1/" + "9" * MAX_DIGITS
        assert parse_rational(format_rational(F(-at, 7))) == F(-at, 7)
        assert format_rational(F(1, at + 1)) == "a rational of 4,301 digits"
        assert format_rational(F(-(at + 1), 3)) == "a rational of 4,301 digits"
        assert format_rational(-(at + 1)) == "a rational of 4,301 digits"

    @pytest.mark.skipif(not hasattr(sys.int_info, "default_max_str_digits"),
                        reason="this Python has no int-to-str limit")
    def test_limit_is_the_interpreters_default(self):
        assert MAX_DIGITS == sys.int_info.default_max_str_digits

    def test_parse_past_the_limit_names_it_without_echo(self):
        text = "1/" + "7" * 5000
        with pytest.raises(DigitLimitError, match="5,000 digits.*4,300") as info:
            parse_rational(text)
        assert len(str(info.value)) < 200
        with pytest.raises(DigitLimitError, match="5,000 digits"):
            parse_rational(" -" + "3" * 5000 + "/7 ")

    def test_malformed_input_not_echoed_whole(self):
        with pytest.raises(ValueError) as info:
            parse_rational("x" * 5000)
        assert len(str(info.value)) < 200

    def test_parse_int(self):
        assert parse_int("-" + "9" * MAX_DIGITS) == -(10 ** MAX_DIGITS - 1)
        with pytest.raises(DigitLimitError, match="4,301 digits"):
            parse_int("1" * (MAX_DIGITS + 1))

    def test_readers_need_no_raised_int_to_str_limit(self):
        """Under the interpreter's lowest int-to-str limit, a reader still
        reads every number within MAX_DIGITS, and a long index key out
        of range is quoted as written."""
        code = """if True:
            from girylab.errors import IngestionError
            from girylab.jsonio import measure_from_json
            from girylab.rational import parse_int, parse_rational
            assert parse_rational("1/" + "7" * 1000).denominator % 10 == 7
            assert parse_int("9" * 4000) == 10 ** 4000 - 1
            doc = {"space": {"carrier": ["a"]}, "weights": {"9" * 4000: "1/1"}}
            try:
                measure_from_json(doc)
            except IngestionError as exc:
                assert "out of range" in str(exc), exc
            else:
                raise AssertionError("accepted an index out of range")
            """
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640",
                   PYTHONPATH=str(Path(rational.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_ingestion_names_the_limit(self):
        doc = {"space": {"carrier": ["a", "b"]},
               "weights": {"0": "1/" + "1" * 5000, "1": "0/1"}}
        with pytest.raises(IngestionError, match="5,000 digits.*4,300"):
            measure_from_json(doc)


class TestSpaceJson:
    def test_reads_carrier_and_generators(self):
        s = space_from_json({"carrier": ["a", "b", "c"], "generators": [["a"]]})
        assert s == generate_sigma(["a", "b", "c"], [["a"]])

    def test_keeps_carrier_order(self):
        s = space_from_json({"carrier": ["z", "y", "x"]})
        assert s.carrier == ("z", "y", "x")

    @pytest.mark.parametrize("carrier, generators, message", [
        (["a"], [["b"]], "not in the carrier"),
        (["a", "b"], [1], "must be a list of carrier labels"),
        (["a", "b"], [[["a"]]], "not in the carrier"),
        (["a", "b"], ["ab"], "must be a list of carrier labels"),
    ], ids=["outside-carrier", "int-generator", "list-label", "string-generator"])
    def test_bad_generator_named(self, carrier, generators, message):
        with pytest.raises(IngestionError, match=message):
            space_from_json({"carrier": carrier, "generators": generators})

    @pytest.mark.parametrize("carrier, message", [
        ([], "carrier must be nonempty"),
        (["a", "b", "a"], "carrier labels must be distinct"),
    ], ids=["empty", "repeated"])
    def test_bad_carrier_named(self, carrier, message):
        with pytest.raises(IngestionError, match=f"^space: {message}$"):
            space_from_json({"carrier": carrier, "generators": []})

    def test_carrier_must_be_labels(self):
        with pytest.raises(IngestionError, match="carrier"):
            space_from_json({"carrier": [1, 2]})


class TestMeasureJson:
    def test_reads_weights_on_the_inlined_space(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        doc = {"space": {"carrier": ["a", "b", "c"], "generators": [["a"]]},
               "weights": {"0": "1/4", "1": "3/4"}}
        assert measure_from_json(doc) == Measure(s, (F(1, 4), F(3, 4)))

    def test_sparse_weights_default_to_zero(self):
        s = FinSpace.discrete(["a", "b"])
        pi = measure_from_json({"weights": {"0": "1/1"}}, s)
        assert pi.weights == (F(1), F(0))

    def test_sum_violation_named(self):
        s = FinSpace.discrete(["a", "b"])
        with pytest.raises(IngestionError, match="sum to 1/1"):
            measure_from_json({"weights": {"0": "1/2", "1": "1/3"}}, s)

    def test_float_rejected(self):
        s = FinSpace.discrete(["a"])
        with pytest.raises(IngestionError, match="p/q"):
            measure_from_json({"weights": {"0": 1.0}}, s)

    def test_out_of_range_atom_named(self):
        s = FinSpace.discrete(["a"])
        with pytest.raises(IngestionError, match="out of range"):
            measure_from_json({"weights": {"3": "1/1"}}, s)

    def test_long_index_keys_hit_the_digit_limit_unechoed(self):
        s = FinSpace.discrete(["a", "b"])
        long_key = "1" * 5000
        space = {"carrier": ["a", "b"], "generators": [["a"], ["b"]]}
        kernel = {"dom": space, "cod": space,
                  "rows": {"0": {"0": "1/1"}, "1": {"1": "1/1"}}}
        bad_row_key = dict(kernel, rows={**kernel["rows"], long_key: {"0": "1/1"}})
        bad_weight_key = dict(kernel, rows={"0": {long_key: "1/1"}, "1": {"1": "1/1"}})
        for parse in (lambda: measure_from_json({"weights": {long_key: "1/1"}}, s),
                      lambda: functional_from_json(
                          {"coefficients": {long_key: "1/1"}}, s),
                      lambda: kernel_from_json(bad_row_key),
                      lambda: kernel_from_json(bad_weight_key)):
            with pytest.raises(DigitLimitError, match="5,000 digits.*4,300") as info:
                parse()
            assert len(str(info.value)) < 200

    @pytest.mark.parametrize("key, error", [
        ("1.5", "atom index '1.5' is not an integer"),
        ("x" * 60, "atom index 'x{40}'... \\(60 characters\\) is not an integer"),
        ("x" * 5000, "is not an integer"),
        ("9" * 4000, "out of range")])
    def test_bad_index_keys_quoted_short(self, key, error):
        s = FinSpace.discrete(["a"])
        with pytest.raises(GirylabError, match=error) as info:
            measure_from_json({"weights": {key: "1/1"}}, s)
        assert len(str(info.value)) < 200


class TestIntervalMeasureJson:
    def test_reads_points_and_pieces(self):
        m = IntervalMeasure(((F(1, 2), F(1, 4)),), ((F(0), F(1), F(3, 4)),))
        doc = {"points": [["1/2", "1/4"]], "uniform": [["0/1", "1/1", "3/4"]]}
        assert interval_measure_from_json(doc) == m

    def test_total_mass_named(self):
        with pytest.raises(IngestionError, match="total mass"):
            interval_measure_from_json({"points": [["1/2", "1/2"]],
                                        "uniform": []})


class TestKernelJson:
    SPACE = {"carrier": ["0", "1"], "generators": [["0"], ["1"]]}

    def test_reads_rows(self):
        s = FinSpace.discrete(["0", "1"])
        k = Kernel(s, s, (Measure(s, (F(1, 2), F(1, 2))),
                          Measure(s, (F(0), F(1)))))
        assert kernel_from_json({"dom": self.SPACE, "cod": self.SPACE,
                                 "rows": {"0": {"0": "1/2", "1": "1/2"},
                                          "1": {"1": "1/1"}}}) == k

    def test_missing_row_named(self):
        s = self.SPACE
        with pytest.raises(IngestionError, match="missing rows"):
            kernel_from_json({"dom": s, "cod": s,
                              "rows": {"0": {"0": "1/1"}}})

    @pytest.mark.parametrize("rows, message", [
        ({"0": {"0": "1/0"}, "1": {"1": "1/1"}},
         "row 0\\[0\\]: rational '1/0' has a zero denominator"),
        ({"0": {"0": "1/1"}, "1": {"1": "1/1"}, "5": {"0": "1/1"}},
         "kernel row index '5' out of range"),
        (None, "kernel document needs 'rows'")],
        ids=["zero-denominator", "row-out-of-range", "no-rows"])
    def test_bad_rows_named(self, rows, message):
        doc = {"dom": self.SPACE, "cod": self.SPACE}
        if rows is not None:
            doc["rows"] = rows
        with pytest.raises(IngestionError, match=f"^{message}$"):
            kernel_from_json(doc)

    def test_row_weight_violation_named(self):
        s = self.SPACE
        with pytest.raises(IngestionError, match="row 1"):
            kernel_from_json({"dom": s, "cod": s,
                              "rows": {"0": {"0": "1/1"},
                                       "1": {"0": "1/2", "1": "1/3"}}})


class TestFunctionalJson:
    def test_reads_extensional_on_the_inlined_space(self):
        s = FinSpace.discrete(["a", "b"])
        phi = functional_from_json({
            "kind": "extensional", "coefficients": {"0": "1/3", "1": "2/3"},
            "space": {"carrier": ["a", "b"], "generators": [["a"]]}})
        assert phi == Functional.extensional(s, (F(1, 3), F(2, 3)))

    def test_named_adversaries(self):
        s = FinSpace.discrete(["a", "b"])
        phi = functional_from_json({"kind": "max"}, s)
        assert not phi.is_extensional

    def test_unknown_kind_named(self):
        s = FinSpace.discrete(["a"])
        with pytest.raises(IngestionError, match="unknown functional kind"):
            functional_from_json({"kind": "mystery"}, s)

    def test_simplex_violation_named(self):
        s = FinSpace.discrete(["a", "b"])
        with pytest.raises(IngestionError, match="sum to 1"):
            functional_from_json(
                {"coefficients": {"0": "1/2", "1": "1/3"}}, s)

    @pytest.mark.parametrize("coefficients, message", [
        ({"0": "1/2", "1": "1/3"},
         "functional: coefficients must sum to 1/1, got total mass 5/6"),
        (["1/2", "1/3"],
         "functional: coefficients must sum to 1/1, got total mass 5/6"),
        (["1/1"], "functional: need exactly one coefficient per atom"),
        (["1/2", "1/2", "0/1"],
         "functional: need exactly one coefficient per atom"),
    ])
    def test_errors_name_the_coefficients(self, coefficients, message):
        s = FinSpace.discrete(["a", "b"])
        with pytest.raises(IngestionError) as info:
            functional_from_json({"coefficients": coefficients}, s)
        assert str(info.value) == message


class TestInlinedSpaceMustMatch:
    """A measure or functional read against a space the command supplies
    may inline a space only if it is that space, carrier order included."""

    SPACE = FinSpace.discrete(["a", "b"])
    DOCS = {"measure": (measure_from_json, {"weights": {"0": "1/1"}}),
            "functional": (functional_from_json, {"kind": "max"})}

    @pytest.mark.parametrize("what", sorted(DOCS))
    def test_same_space_accepted(self, what):
        parse, doc = self.DOCS[what]
        inlined = parse(dict(doc, space={"carrier": ["a", "b"],
                                         "generators": [["a"], ["b"]]}),
                        self.SPACE)
        assert inlined.space == parse(doc, self.SPACE).space == self.SPACE

    @pytest.mark.parametrize("what", sorted(DOCS))
    def test_garbage_space_named(self, what):
        parse, doc = self.DOCS[what]
        with pytest.raises(IngestionError, match="space document must be an object"):
            parse(dict(doc, space="garbage"), self.SPACE)

    @pytest.mark.parametrize("what", sorted(DOCS))
    @pytest.mark.parametrize("carrier", [["a", "b", "c"], ["b", "a"]],
                             ids=["wrong-size", "reordered"])
    def test_other_space_names_both(self, what, carrier):
        parse, doc = self.DOCS[what]
        inlined = {"carrier": carrier, "generators": [[x] for x in carrier]}
        with pytest.raises(IngestionError) as info:
            parse(dict(doc, space=inlined), self.SPACE)
        assert str(info.value) == (
            f"{what} document's space (carrier {carrier}, atoms "
            f"{[[x] for x in carrier]}) is not the space the command "
            "supplies (carrier ['a', 'b'], atoms [['a'], ['b']])")


SPACE_DOC = {"carrier": ["a", "b"], "generators": [["a"]]}

#: decoder -> a valid document for it; every field of each is replaced below.
VALID_DOCUMENTS = {
    "space": (space_from_json, SPACE_DOC),
    "measure": (measure_from_json,
                {"space": SPACE_DOC, "weights": {"0": "1/2", "1": "1/2"}}),
    "kernel": (kernel_from_json,
               {"dom": SPACE_DOC, "cod": SPACE_DOC,
                "rows": {"0": {"0": "1/1"}, "1": {"1": "1/1"}}}),
    "functional": (functional_from_json,
                   {"space": SPACE_DOC, "kind": "extensional",
                    "coefficients": ["1/2", "1/2"]}),
    "interval-measure": (interval_measure_from_json,
                         {"points": [["1/2", "1/2"]],
                          "uniform": [["0/1", "1/1", "1/2"]]}),
}

#: One value of each JSON type, none of which any field accepts.
WRONG_VALUES = {"list": [None], "object": {"": None}, "null": None,
                "true": True, "number": 7}


class TestIngestionTypeTable:
    """Every field a decoder reads, given a value of each JSON type, raises
    a GirylabError (exit 2 from the CLI) and never another exception."""

    @pytest.mark.parametrize("decoder, field", [
        (name, field) for name, (_, doc) in VALID_DOCUMENTS.items()
        for field in doc])
    @pytest.mark.parametrize("value", sorted(WRONG_VALUES))
    def test_wrong_type_raises_a_girylab_error(self, decoder, field, value):
        parse, doc = VALID_DOCUMENTS[decoder]
        parse(doc)
        with pytest.raises(GirylabError):
            parse(dict(doc, **{field: WRONG_VALUES[value]}))
