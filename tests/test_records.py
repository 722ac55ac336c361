"""The value semantics of girylab's frozen records.

Each record is compared, hashed and written by its fields and nothing
else: two records of one class built apart from equal fields are equal
and hash equal, a record differing in any one field is unequal, a record
never equals one of another class, and no field can be assigned or
deleted once it is built.  A record that only stores its fields
inherits ``Frozen.__init__``; one that checks or derives a field writes
its own.
"""

import ast
import inspect
import textwrap
from fractions import Fraction

import pytest

from girylab.codensity import AffineMap, SequenceAffineMap, VanishingSequence
from girylab.config import SuiteConfig
from girylab.counterexample import EventualFn, FinCofSet
from girylab.duality import Functional, FunctionalMixture, LimitWitness
from girylab.harness import Property, PropertyRecord, Report
from girylab.measures import IntervalMeasure, Measure
from girylab.monad import Kernel, MetaMeasure
from girylab.spaces import FinSpace, Frozen, IFunction, MeasMap, generate_sigma
from girylab.verdicts import Verdict

F = Fraction


def space(n=2):
    return FinSpace.discrete([chr(ord("a") + i) for i in range(n)])


def coarse():
    return generate_sigma(["a", "b"], [])


def measure(*nums, den=None):
    return Measure(space(len(nums)), nums, den or sum(nums))


def extensional(*nums):
    return Functional(space(len(nums)), measure(*nums))


def one_function(*_):
    """The value of every callable field: records compare it by identity."""


def another_function(*_):
    """A second callable, unequal to ``one_function``."""


def zero_terms(n):
    """The terms of a LimitWitness: zero on every atom from index 0 on."""
    return IFunction.constant(space(), F(0))


def other_zero_terms(n):
    """A second term function, unequal to ``zero_terms``."""
    return IFunction.constant(space(), F(0))


def property_record(**kw):
    return PropertyRecord(
        kw.get("name", "p"), kw.get("law", "a law"), kw.get("result", "pass"),
        kw.get("witness"), kw.get("trials", 3), kw.get("seed", 7),
        kw.get("duration", 0.5))


#: class -> (its fields in order, a builder taking keyword overrides).
#: Every builder makes a fresh record from freshly built parts.
RECORDS = {
    FinSpace: (("carrier", "atoms"), lambda **kw: FinSpace(
        kw.get("carrier", ("a", "b")), kw.get("atoms", (1, 2)))),
    MeasMap: (("dom", "cod", "table"), lambda **kw: MeasMap(
        kw.get("dom", space()), kw.get("cod", space()),
        kw.get("table", (0, 1)))),
    IFunction: (("space", "nums", "den"), lambda **kw: IFunction(
        kw.get("space", space()), kw.get("nums", (1, 2)), kw.get("den", 3))),
    Measure: (("space", "nums", "den"), lambda **kw: Measure(
        kw.get("space", space()), kw.get("nums", (1, 2)), kw.get("den", 3))),
    IntervalMeasure: (("points", "pieces"), lambda **kw: IntervalMeasure(
        kw.get("points", ((F(1, 2), F(1, 3)),)),
        kw.get("pieces", ((F(0), F(1), F(2, 3)),)))),
    MetaMeasure: (("base", "support"), lambda **kw: MetaMeasure(
        kw.get("base", space()),
        kw.get("support", ((measure(1, 1), F(1, 4)),
                           (measure(1, 0), F(3, 4)))))),
    Kernel: (("dom", "cod", "rows"), lambda **kw: Kernel(
        kw.get("dom", space()), kw.get("cod", space()),
        kw.get("rows", (measure(1, 1), measure(0, 1))))),
    SuiteConfig: (("seed", "trials", "max_carrier", "max_arity",
                   "max_hull_dim"), lambda **kw: SuiteConfig(**kw)),
    Verdict: (("property", "result", "witness", "trials", "seed"),
              lambda **kw: Verdict(
                  kw.get("property", "p"), kw.get("result", "pass"),
                  kw.get("witness"), kw.get("trials", 3), kw.get("seed", 7))),
    PropertyRecord: (("name", "law", "result", "witness", "trials", "seed"),
                     property_record),
    Report: (("suite", "config", "records"), lambda **kw: Report(
        kw.get("suite", "all"), kw.get("config", SuiteConfig(seed=3)),
        kw.get("records", (property_record(),)))),
    Property: (("name", "law", "case"), lambda **kw: Property(
        kw.get("name", "p"), kw.get("law", "a law"),
        kw.get("case", one_function))),
    AffineMap: (("arity", "a0", "coeffs"), lambda **kw: AffineMap(
        kw.get("arity", 2), kw.get("a0", F(1, 4)),
        kw.get("coeffs", (F(1, 4), F(1, 2))))),
    VanishingSequence: (("entries",), lambda **kw: VanishingSequence(
        kw.get("entries", (F(1, 2), F(1, 4))))),
    SequenceAffineMap: (("a0", "coeffs"), lambda **kw: SequenceAffineMap(
        kw.get("a0", F(1, 4)), kw.get("coeffs", (F(1, 4), F(1, 2))))),
    Functional: (("space", "measure", "evaluator", "label"),
                 lambda **kw: Functional(
                     kw.get("space", space()), kw.get("measure"),
                     kw.get("evaluator", one_function),
                     kw.get("label", "one"))),
    FunctionalMixture: (("space", "support"), lambda **kw: FunctionalMixture(
        kw.get("space", space()),
        kw.get("support", ((extensional(1, 1), F(1, 4)),
                           (extensional(1, 0), F(3, 4)))))),
    LimitWitness: (("space", "terms", "certs"), lambda **kw: LimitWitness(
        kw.get("space", space()), kw.get("terms", zero_terms),
        kw.get("certs", (0, 1)))),
    EventualFn: (("prefix", "tail"), lambda **kw: EventualFn(
        kw.get("prefix", (F(1, 2), F(0))), kw.get("tail", F(1)))),
    FinCofSet: (("cofinite", "elements"), lambda **kw: FinCofSet(
        kw.get("cofinite", False), kw.get("elements", frozenset({1, 2})))),
}

#: class -> field -> overrides giving a valid record whose value of that
#: field differs from the builder's default (a measure's numerators
#: change with its denominator, and parts follow a changed space).
VARIANTS = {
    FinSpace: {"carrier": {"carrier": ("a", "c")}, "atoms": {"atoms": (3,)}},
    MeasMap: {"dom": {"dom": coarse(), "table": (0, 0)},
              "cod": {"cod": coarse(), "table": (0, 0)},
              "table": {"table": (1, 0)}},
    IFunction: {"space": {"space": coarse(), "nums": (1,)},
                "nums": {"nums": (1, 0)}, "den": {"den": 5}},
    Measure: {"space": {"space": space(3), "nums": (1, 2, 0)},
              "nums": {"nums": (2, 1)}, "den": {"nums": (1, 4), "den": 5}},
    IntervalMeasure: {"points": {"points": ((F(1, 4), F(1, 3)),)},
                      "pieces": {"pieces": ((F(0), F(1, 2), F(2, 3)),)}},
    MetaMeasure: {"base": {"base": space(1),
                           "support": ((measure(1), F(1)),)},
                  "support": {"support": ((measure(1, 1), F(1, 2)),
                                          (measure(1, 0), F(1, 2)))}},
    Kernel: {"dom": {"dom": space(3), "rows": (measure(1, 1),) * 3},
             "cod": {"cod": coarse(), "rows": (Measure(coarse(), (1,), 1),) * 2},
             "rows": {"rows": (measure(0, 1), measure(1, 1))}},
    SuiteConfig: {name: {name: value} for name, value in (
        ("seed", 1), ("trials", 9), ("max_carrier", 3), ("max_arity", 2),
        ("max_hull_dim", 2))},
    Verdict: {name: {name: value} for name, value in (
        ("property", "q"), ("result", "fail"), ("witness", {"case": 0}),
        ("trials", 1), ("seed", None))},
    PropertyRecord: {name: {name: value} for name, value in (
        ("name", "q"), ("law", "another law"), ("result", "fail"),
        ("witness", {"case": 0}), ("trials", 1), ("seed", 8))},
    Report: {"suite": {"suite": "duality"}, "config": {"config": SuiteConfig()},
             "records": {"records": ()}},
    Property: {"name": {"name": "q"}, "law": {"law": "another law"},
               "case": {"case": another_function}},
    AffineMap: {"arity": {"arity": 1, "coeffs": (F(1, 4),)},
                "a0": {"a0": F(0)}, "coeffs": {"coeffs": (F(1, 2), F(1, 4))}},
    VanishingSequence: {"entries": {"entries": (F(1, 2),)}},
    SequenceAffineMap: {"a0": {"a0": F(0)},
                        "coeffs": {"coeffs": (F(1, 2), F(1, 4))}},
    Functional: {"space": {"space": space(3)},
                 "measure": {"measure": measure(1, 2), "evaluator": None,
                             "label": ""},
                 "evaluator": {"evaluator": another_function},
                 "label": {"label": "another"}},
    FunctionalMixture: {"space": {"space": space(1),
                                  "support": ((extensional(1), F(1)),)},
                        "support": {"support": ((extensional(1, 1), F(1, 2)),
                                                (extensional(1, 0), F(1, 2)))}},
    LimitWitness: {"space": {"space": coarse(), "certs": (0,),
                             "terms": lambda n: IFunction.constant(coarse(),
                                                                   F(0))},
                   "terms": {"terms": other_zero_terms},
                   "certs": {"certs": (1, 0)}},
    EventualFn: {"prefix": {"prefix": (F(1, 2),)}, "tail": {"tail": F(1, 3)}},
    FinCofSet: {"cofinite": {"cofinite": True},
                "elements": {"elements": frozenset({3})}},
}


CLASSES = list(RECORDS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecordSemantics:
    def test_equal_fields_give_equal_records_and_hashes(self, cls):
        build = RECORDS[cls][1]
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_hash_is_the_hash_of_the_field_tuple(self, cls):
        fields, build = RECORDS[cls]
        record = build()
        assert hash(record) == hash(tuple(getattr(record, f) for f in fields))

    def test_each_field_takes_part_in_equality(self, cls):
        fields, build = RECORDS[cls]
        for name in fields:
            changed = build(**VARIANTS[cls][name])
            assert getattr(changed, name) != getattr(build(), name), name
            assert changed != build(), name

    def test_another_class_is_never_equal(self, cls):
        fields, build = RECORDS[cls]
        record = build()
        assert record.__eq__(object()) is NotImplemented
        assert record != tuple(getattr(record, f) for f in fields)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        fields, build = RECORDS[cls]
        record = build()
        for name in fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before

    def test_repr_names_the_class_and_its_fields(self, cls):
        fields, build = RECORDS[cls]
        record = build()
        inner = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
        assert repr(record) == f"{cls.__name__}({inner})"


def _stores_only(init) -> bool:
    """Whether ``init``'s body is nothing but
    ``object.__setattr__(self, "<field>", <parameter>)`` statements."""
    node = ast.parse(textwrap.dedent(inspect.getsource(init))).body[0]
    params = {a.arg for a in node.args.args}
    return all(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
        and ast.unparse(stmt.value.func) == "object.__setattr__"
        and len(stmt.value.args) == 3
        and isinstance(stmt.value.args[1], ast.Constant)
        and isinstance(stmt.value.args[2], ast.Name)
        and stmt.value.args[2].id in params
        for stmt in node.body)


INHERITING = [cls for cls in CLASSES if "__init__" not in vars(cls)]


class TestConstructors:
    def test_the_table_lists_every_record(self):
        assert {cls for cls in Frozen.__subclasses__()
                if cls.__module__.startswith("girylab.")} == set(CLASSES)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_an_own_init_does_more_than_store(self, cls):
        init = vars(cls).get("__init__")
        assert init is None or not _stores_only(init)

    @pytest.mark.parametrize("cls", INHERITING, ids=lambda c: c.__name__)
    def test_a_wrong_count_of_values_names_the_record(self, cls):
        fields, build = RECORDS[cls]
        values = [getattr(build(), f) for f in fields]
        for wrong in (values[:-1], values + [None]):
            with pytest.raises(TypeError, match=cls.__name__):
                cls(*wrong)


class TestParticularRecords:
    def test_space_repr(self):
        assert repr(space()) == "FinSpace(carrier=('a', 'b'), atoms=(1, 2))"

    def test_space_point_tables_stay_out_of_equality_and_hash(self):
        a, b = space(), space()
        object.__setattr__(b, "_position", {})
        object.__setattr__(b, "_atom_at", ())
        assert a == b and hash(a) == hash(b)
        assert "_position" not in repr(b) and "_atom_at" not in repr(b)

    def test_map_atom_map_stays_out_of_equality_hash_and_repr(self):
        a, b = RECORDS[MeasMap][1](), RECORDS[MeasMap][1]()
        assert a.atom_map == b.atom_map == (0, 1)
        object.__setattr__(b, "atom_map", ())
        assert a == b and hash(a) == hash(b)
        assert "atom_map" not in repr(b)

    def test_duration_stays_out_of_equality_hash_and_repr(self):
        a, b = property_record(), property_record(duration=0.25)
        assert (a.duration, b.duration) == (0.5, 0.25)
        assert a == b and hash(a) == hash(b)
        assert "duration" not in repr(b)

    def test_measure_and_function_on_the_same_integers_differ(self):
        s = space()
        m, f = Measure(s, (1, 2), 3), IFunction(s, (1, 2), 3)
        assert (m.space, m.nums, m.den) == (f.space, f.nums, f.den)
        assert m != f and f != m
        assert len({m, f}) == 2

    @pytest.mark.parametrize("cls", [AffineMap, SequenceAffineMap],
                             ids=lambda c: c.__name__)
    def test_lifted_coefficients_stay_out_of_equality_hash_and_repr(self, cls):
        build = RECORDS[cls][1]
        a, b = build(), build()
        assert a.lifted == b.lifted == (1, (1, 2), 4)
        object.__setattr__(b, "lifted", (0, (), 1))
        assert a == b and hash(a) == hash(b)
        assert "lifted" not in repr(b)

    def test_cached_weights_and_values_stay_out_of_equality(self):
        s = space()
        m, f = Measure(s, (1, 2), 3), IFunction(s, (1, 2), 3)
        assert m.weights == (F(1, 3), F(2, 3))
        assert f.values == (F(1, 3), F(2, 3))
        assert m == Measure(s, (1, 2), 3) and f == IFunction(s, (1, 2), 3)
        assert "weights" not in repr(m) and "values" not in repr(f)

    def test_config_repr(self):
        assert repr(SuiteConfig(seed=3)) == (
            "SuiteConfig(seed=3, trials=500, max_carrier=8, max_arity=4, "
            "max_hull_dim=3)")
