"""JSON readers: the values each document gives, and invariant-naming
ingestion errors."""

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, prod

import pytest

from girylab.errors import (DigitLimitError, GirylabError, IngestionError,
                            InvariantError)
from girylab.spaces import FinSpace, generate_sigma
from girylab.measures import IntervalMeasure, Measure
from girylab.monad import Kernel
from girylab.duality import Functional
from girylab.jsonio import (functional_from_json, interval_measure_from_json,
                            kernel_from_json, measure_from_json,
                            space_from_json)
from girylab.rational import (DECIMAL_INTEGERS, MAX_DIGITS, _common_factor,
                              format_rational, parse_int, parse_rational,
                              probability_numerators)

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


class TestLowestTerms:
    """The state form ``format_rational(nums, den, base)`` writes what
    ``format_rational(Fraction(n, den))`` writes for each numerator, on
    ints and integral Decimals alike; ``_common_factor`` finds what one
    gcd finds, on both alike."""

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

    @pytest.mark.parametrize("base", BASES)
    def test_base_form_equals_the_fraction_form(self, base):
        for nums, den in self.states(base):
            want = [format_rational(F(n, den)) for n in nums]
            assert format_rational(nums, den, base) == want
            assert format_rational(nums[::-1], den, base) == want[::-1]
            for n, s in zip(nums, want):
                assert format_rational([n], den, base) == [s]

    @pytest.mark.parametrize("base", BASES)
    def test_decimal_form_equals_the_int_form(self, base):
        for nums, den in self.states(base):
            assert format_rational(list(map(Decimal, nums)), Decimal(den),
                                   base) == format_rational(nums, den, base)
            assert format_rational([Decimal(nums[-1])], Decimal(den), base) == \
                format_rational([nums[-1]], den, base)

    def test_decimal_negative_zero_is_written_as_zero(self):
        assert format_rational([Decimal("-0")], Decimal(8), 2) == ["0/1"]
        assert format_rational([Decimal(-6)], Decimal(8), 2) == ["-3/4"]
        assert format_rational([Decimal(2), Decimal("-0"), Decimal(-6)],
                               Decimal(8), 2) == ["1/4", "0/1", "-3/4"]

    def test_common_factor_of_a_high_power(self):
        den = 2 ** 5000 * 3 ** 7
        nums = [2 ** 4999, 3 * 2 ** 4000, 2 ** 4999 * 3, 1]
        want = [format_rational(F(n, den)) for n in nums]
        assert want[0] == "1/4374"
        assert format_rational(nums, den, 6) == want
        assert format_rational([2 ** 4999], den, 6) == ["1/4374"]
        assert format_rational([Decimal(2 ** 4999)], Decimal(den), 6) == \
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
        assert format_rational([n], den, base) == [want]
        assert want == format_rational(F(n, den))

    @pytest.mark.parametrize("den, base", [(0, 2), (-4, 2), (4, 0), (4, -2)])
    def test_nonpositive_denominator_or_base_rejected(self, den, base):
        with pytest.raises(InvariantError, match="must be positive"):
            format_rational([1], den, base)

    def test_base_needs_a_denominator(self):
        for args in [([F(1, 2)], None, 2), (1, 2), ([1], 2)]:
            with pytest.raises(InvariantError, match="den and base together"):
                format_rational(*args)

    def test_digit_limit_message_of_the_fraction_form(self):
        big = 10 ** MAX_DIGITS
        with pytest.raises(DigitLimitError) as fraction_form:
            format_rational(F(big, 3))
        for args in [([big], 3, 3), ([-big], 3, 3),
                     ([1, big], 3, 3), ([1, 2], 3 * big, 30),
                     ([Decimal(big)], Decimal(3), 3), ([Decimal(-big)], 3, 3)]:
            with pytest.raises(DigitLimitError) as int_form:
                format_rational(*args)
            assert str(int_form.value) == str(fraction_form.value)
        # reduced first, as the Fraction form is
        assert format_rational([big, 2 * big], 2 * big, 10) == ["1/2", "1/1"]


class TestDigitLimit:
    """Numerators and denominators are capped at MAX_DIGITS decimal digits,
    the same bound on format and on parse."""

    def test_format_at_and_past_the_limit(self):
        at = 10 ** MAX_DIGITS - 1
        assert format_rational(F(1, at)) == f"1/{at}"
        assert parse_rational(format_rational(F(-at, 7))) == F(-at, 7)
        with pytest.raises(DigitLimitError, match="4,301 digits.*4,300"):
            format_rational(F(1, at + 1))
        with pytest.raises(DigitLimitError, match="4,301 digits"):
            format_rational(F(-(at + 1), 3))

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
        ("x" * 5000, "5,000 digits"),
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
