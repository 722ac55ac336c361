"""Finite measurable spaces, sigma-algebra generation, and measurable maps.

Subsets of the carrier are stored as int bitmasks (bit i = carrier[i]),
so complement is XOR with the full mask and union is OR.  A sigma-algebra
on a finite carrier is determined by its atoms: the minimal nonempty
measurable sets, which partition the carrier; every measurable set is a
union of atoms.  All values constant on atoms are measurable into any
codomain, which is what makes the atomwise representations downstream
(functions, measures, kernels) measurable by construction.  A
``MeasMap`` is checked measurable when it is built, and keeps the
codomain atom of each domain atom, which every pushforward reads.

``sigma_from_masks`` computes the atoms from generator bitmasks by
refining the full mask along each one; ``generate_sigma`` checks label
lists and turns them into those masks.  ``IFunction`` stores a function
into [0,1] as int numerators over one denominator in lowest terms, as
``measures.Measure`` stores a measure, so its operations and the
integrals and functionals applied to it are integer arithmetic.

``Frozen`` is the base of every record in the package: plain classes,
so that starting ``girylab`` does not import ``dataclasses``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import InvariantError, NotMeasurableError, SpaceMismatchError
from .rational import (exact, format_rational, lift, random_fraction,
                       unit_numerators)

#: Carrier cap: a named size limit, enforced by ``sigma_from_masks``.
MAX_CARRIER_POINTS = 16


class Frozen:
    """An immutable record of the fields named in ``_fields``.

    A subclass lists one or more fields.  A record that only stores them
    inherits ``__init__``, which takes one value per field, in order; a
    record that checks or derives a field writes its own ``__init__`` and
    sets each field once with ``object.__setattr__``.  After that no
    attribute can be assigned or deleted.  Equality (between records of
    one class), hashing and repr read the fields alone, so caches kept
    beside them take no part.  ``_key``, the tuple of the fields, is an
    ``attrgetter`` made for each subclass, wrapped for a single field
    to return a 1-tuple, so a hash is always that of the field tuple.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes the values of "
                f"{', '.join(self._fields)}, got {len(values)}")
        self.__dict__.update(zip(self._fields, values))

    def __init_subclass__(cls):
        key = attrgetter(*cls._fields)
        cls._key = key if len(cls._fields) > 1 else staticmethod(
            lambda record: (key(record),))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


class FinSpace(Frozen):
    """A finite carrier with the atom partition of its sigma-algebra.

    ``carrier`` fixes the point order; ``atoms`` lists the atom bitmasks
    ordered by their smallest member, so atom indices are deterministic.
    The measurable sets are exactly the unions of atoms, so the pair
    determines the space; the point tables built from it are caches and
    take no part in equality or hashing.  The carrier must be nonempty,
    its labels distinct, and the atoms must partition it in that order,
    or InvariantError names the fault.
    """

    _fields = ("carrier", "atoms")

    def __init__(self, carrier: tuple[str, ...], atoms: tuple[int, ...]):
        if not carrier:
            raise InvariantError("carrier must be nonempty")
        position = {lab: i for i, lab in enumerate(carrier)}
        if len(position) != len(carrier):
            raise InvariantError("carrier labels must be distinct")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "atoms", atoms)
        atom_at = [None] * len(carrier)
        smallest = 0
        for j, atom in enumerate(atoms):
            if not atom:
                raise InvariantError(f"atom {j} is empty")
            if atom >> len(carrier):  # a negative mask shifts to -1
                raise InvariantError(f"atom {j} reaches past the carrier")
            if atom & -atom < smallest:
                raise InvariantError(
                    f"atom {j} is out of order by smallest member")
            smallest = atom & -atom
            while atom:
                low = atom & -atom
                i = low.bit_length() - 1
                if atom_at[i] is not None:
                    raise InvariantError(f"atom {j} overlaps an earlier atom")
                atom_at[i] = j
                atom ^= low
        if None in atom_at:
            raise InvariantError(
                f"point {carrier[atom_at.index(None)]!r} is in no atom")
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_atom_at", tuple(atom_at))

    # -- mask helpers -------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << len(self.carrier)) - 1

    def point_index(self, label: str) -> int:
        try:
            return self._position[label]
        except (KeyError, TypeError):
            raise NotMeasurableError(f"point {label!r} is not in the carrier") from None

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.carrier) if mask >> i & 1)

    def is_measurable_set(self, mask: int) -> bool:
        """No bit outside the carrier, and no atom straddles the set."""
        return (0 <= mask <= self.full_mask
                and all(atom & mask in (0, atom) for atom in self.atoms))

    def require_measurable_set(self, mask: int) -> int:
        if not self.is_measurable_set(mask):
            raise NotMeasurableError(
                f"set {set(self.labels_of(mask))} is not in the sigma-algebra")
        return mask

    def atom_index_of_point(self, label: str) -> int:
        return self._atom_at[self.point_index(label)]

    def describe_atoms(self) -> list[list[str]]:
        return [list(self.labels_of(a)) for a in self.atoms]

    # -- constructors --------------------------------------------------

    @staticmethod
    def discrete(labels: Sequence[str]) -> "FinSpace":
        return generate_sigma(labels, [[lab] for lab in labels])


def generate_sigma(carrier: Sequence[str],
                   generators: Iterable[Sequence[str]]) -> FinSpace:
    """Smallest sigma-algebra on ``carrier`` containing every generator.

    Each generator is checked and turned into a bitmask;
    ``sigma_from_masks`` then computes the atoms, and ``FinSpace`` checks
    the labels.  The closure under complement and union is exactly the
    set of unions of atoms, so the atoms are all that is kept.  Finite
    carriers make countable and finite closure coincide.  Each generator
    must be a list (or tuple) of carrier labels.
    """
    labels = tuple(carrier)
    _require_cap(len(labels))  # before the generators are read

    gen_masks = []
    for gen in generators:
        if not isinstance(gen, (list, tuple)):
            raise InvariantError(
                f"generator {gen!r} must be a list of carrier labels")
        mask = 0
        for lab in gen:
            if not isinstance(lab, str) or lab not in labels:
                raise InvariantError(
                    f"generator element {lab!r} is not in the carrier")
            mask |= 1 << labels.index(lab)
        gen_masks.append(mask)
    return sigma_from_masks(labels, gen_masks)


def _require_cap(points: int) -> None:
    if points > MAX_CARRIER_POINTS:
        raise InvariantError(f"carrier has {points} points, cap is {MAX_CARRIER_POINTS}")


def sigma_from_masks(labels: tuple[str, ...],
                     gen_masks: Iterable[int]) -> FinSpace:
    """The space on the distinct ``labels`` whose sigma-algebra is
    generated by the bitmasks ``gen_masks`` (bit i = labels[i]).

    The full mask is refined along each generator: every block splits
    into its parts inside and outside the generator, empty parts dropped.
    The blocks left are the atoms, ordered by their smallest member so
    indices are reproducible.  The carrier cap applies as in
    ``generate_sigma``.
    """
    _require_cap(len(labels))
    blocks = [(1 << len(labels)) - 1]
    for g in gen_masks:
        blocks = [part for b in blocks for part in (b & g, b & ~g) if part]
    return FinSpace(labels, tuple(sorted(blocks, key=lambda m: m & -m)))


class MeasMap(Frozen):
    """A measurable map between finite spaces, stored pointwise.

    ``table[i]`` is the cod point index that dom point i maps to.  The
    map is measurable iff every cod-measurable preimage is dom-measurable.
    The preimages of the cod atoms partition the domain, so that holds iff
    the points of each dom atom all land in one cod atom; the constructor
    checks this and raises NotMeasurableError otherwise.  ``atom_map[j]``
    is the cod atom that dom atom j lands in: a cache beside the fields,
    as ``FinSpace``'s point tables are.
    """

    _fields = ("dom", "cod", "table")

    def __init__(self, dom: FinSpace, cod: FinSpace, table: tuple[int, ...]):
        if len(table) != len(dom.carrier):
            raise InvariantError("map table must cover the whole domain carrier")
        n = len(cod.carrier)
        if any(not 0 <= t < n for t in table):
            raise InvariantError("map table points outside the codomain carrier")
        image = [cod._atom_at[t] for t in table]
        atom_map = tuple(image[(atom & -atom).bit_length() - 1]
                         for atom in dom.atoms)
        if image != [atom_map[j] for j in dom._atom_at]:
            raise NotMeasurableError("map is not measurable")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "atom_map", atom_map)

    @staticmethod
    def identity(space: FinSpace) -> "MeasMap":
        return MeasMap(space, space, tuple(range(len(space.carrier))))

    def apply(self, label: str) -> str:
        return self.cod.carrier[self.table[self.dom.point_index(label)]]

    def preimage(self, cod_mask: int) -> int:
        mask = 0
        for i, t in enumerate(self.table):
            if cod_mask >> t & 1:
                mask |= 1 << i
        return mask

    def compose(self, other: "MeasMap") -> "MeasMap":
        """self after other (other first, then self)."""
        if other.cod is not self.dom and other.cod != self.dom:
            raise SpaceMismatchError("composition spaces do not align")
        return MeasMap(other.dom, self.cod,
                       tuple(self.table[t] for t in other.table))


class IFunction(Frozen):
    """A measurable function into the unit interval, stored atomwise as
    int numerators ``nums`` over one denominator ``den`` in lowest terms,
    so equality and hashing compare integers.

    ``nums[i] / den`` is the value on ``space.atoms[i]``.  Constancy on
    atoms makes measurability automatic.  ``IFunction(space, values)`` takes
    rationals, admits each with ``rational.exact`` and lifts them once to
    int numerators over the lcm of their denominators;
    ``IFunction(space, nums, den)`` takes int numerators over ``den``.
    Either way ``rational.unit_numerators`` checks that every value lies
    in [0,1] and reduces them.  ``values``, the tuple of Fractions, is
    kept as given in the first form and built when first read in the
    second.
    """

    _fields = ("space", "nums", "den")

    def __init__(self, space: FinSpace, values, den: int | None = None):
        if len(values) != len(space.atoms):
            raise InvariantError("need exactly one value per atom")
        if den is None:
            values = tuple(exact(v, "function value") for v in values)
            self.__dict__["values"] = values
            values, den = lift(values)
        nums, den = unit_numerators(values, den, "function value")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @staticmethod
    def constant(space: FinSpace, r: Fraction) -> "IFunction":
        r = exact(r, "function value")
        return IFunction(space, (r.numerator,) * len(space.atoms), r.denominator)

    def at_point(self, label: str) -> Fraction:
        return self.values[self.space.atom_index_of_point(label)]

    def _over_common_den(self, other: "IFunction") -> tuple[list[int], list[int], int]:
        """Both functions' numerators over the lcm of their denominators."""
        _same_space(self, other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return [n * a for n in self.nums], [n * b for n in other.nums], den

    def blend(self, other: "IFunction", r: Fraction) -> "IFunction":
        """The convex combination r*self + (1-r)*other."""
        xs, ys, den = self._over_common_den(other)
        r = exact(r, "blend weight")
        p, q = r.numerator, r.denominator
        return IFunction(self.space, tuple(
            p * x + (q - p) * y for x, y in zip(xs, ys)), q * den)

    def scale(self, r: Fraction) -> "IFunction":
        r = exact(r, "scale factor")
        p = r.numerator
        return IFunction(self.space, tuple(p * n for n in self.nums),
                         r.denominator * self.den)

    def add(self, other: "IFunction") -> "IFunction":
        xs, ys, den = self._over_common_den(other)
        return IFunction(self.space, tuple(x + y for x, y in zip(xs, ys)), den)

    def compose_with(self, g: MeasMap) -> "IFunction":
        """self after g, an IFunction on g.dom."""
        if self.space != g.cod:
            raise SpaceMismatchError("function lives on a different space than g.cod")
        return IFunction(g.dom, tuple(self.nums[k] for k in g.atom_map), self.den)

    def describe(self) -> dict:
        return {"atoms": [" ".join(self.space.labels_of(a)) for a in self.space.atoms],
                "values": [format_rational(n, self.den) for n in self.nums]}


def generate_ifunction(rng: random.Random, space: FinSpace) -> IFunction:
    """A random function: one ``random_fraction`` value per atom."""
    return IFunction(space, tuple(random_fraction(rng) for _ in space.atoms))


def characteristic(space: FinSpace, mask: int) -> IFunction:
    """The indicator of a measurable set: 1 on atoms inside, 0 outside."""
    space.require_measurable_set(mask)
    return IFunction(space, tuple(
        int(atom & mask == atom) for atom in space.atoms), 1)


def atom_indicator(space: FinSpace, atom_index: int) -> IFunction:
    return characteristic(space, space.atoms[atom_index])


def _same_space(a: IFunction, b: IFunction) -> None:
    if a.space != b.space:
        raise SpaceMismatchError("functions live on different spaces")
