"""The 14 value classes behave as the frozen dataclasses they replace.

For seeded instances of every class, a ``dataclasses`` twin is built
here from the class's annotated fields (a dict default as a
``default_factory``), and ``==``, ``!=``, ``hash``, ``repr``, keyword
and positional construction and the refusal to set or delete an
attribute are compared between the two.  Outcomes are compared as
values, or as the kind and message of the exception raised, so an
unhashable field or an ambiguous numpy comparison must fail the same
way in both.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from homkit import hom_structure, lie_algebra, plane_wave, reduction, tensor_core, wave_table
from homkit.hom_structure import CurvatureAtPoint, HomogeneousStructure, StructureClass, classify
from homkit.lie_algebra import LieAlgebra, ReductiveReport, ReductiveSplit, check_reductive
from homkit.plane_wave import (ChartPoint, GeometryJet, exact_curvature, frame_structure, metric_jet,
                               sample_points)
from homkit.reduction import (DegenerateAnsatz, NondegenerateAnsatz, ReductionReport, generate_instance,
                              reduce_ansatz)
from homkit.tensor_core import FrameMetric, Tensor
from homkit.wave_table import PlaneWaveData, pw_isometry_algebra


def small_fraction(rng):
    # drawn from a small set, so that independent draws are sometimes equal
    return Fraction(rng.randint(-1, 1), rng.randint(1, 2))


def wave(rng):
    n = rng.randint(1, 2)
    f = [[Fraction(0)] * n for _ in range(n)]
    h = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        h[i][j] = h[j][i] = small_fraction(rng)
        if i != j:
            f[i][j] = small_fraction(rng)
            f[j][i] = -f[i][j]
    return PlaneWaveData(n, tuple(map(tuple, f)), tuple(map(tuple, h)))


def split(rng, dim):
    m = rng.sample(range(dim), rng.randint(0, dim))
    return ReductiveSplit(tuple(m), tuple(i for i in range(dim) if i not in m))


def reductive_report(rng):
    algebra = pw_isometry_algebra(wave(rng))
    return check_reductive(algebra, split(rng, algebra.dim))


def curvature(rng):
    pw = wave(rng)
    return exact_curvature(pw, small_fraction(rng), [small_fraction(rng) for _ in range(pw.n)])


def jet(rng):
    pw = wave(rng)
    return metric_jet(pw, sample_points(pw.n, 1, rng.randrange(3))[0])


BUILDERS = {
    Tensor: lambda rng: Tensor.from_entries(
        2, ("u", "d"), {(rng.randrange(2), rng.randrange(2)): small_fraction(rng)}),
    FrameMetric: lambda rng: FrameMetric.diagonal([rng.choice((-1, 1, 2)) for _ in range(rng.randint(1, 2))]),
    LieAlgebra: lambda rng: pw_isometry_algebra(wave(rng)),
    ReductiveSplit: lambda rng: split(rng, 3),
    ReductiveReport: reductive_report,
    HomogeneousStructure: lambda rng: frame_structure(wave(rng)),
    StructureClass: lambda rng: classify(frame_structure(wave(rng))),
    CurvatureAtPoint: curvature,
    ChartPoint: lambda rng: sample_points(rng.randint(1, 2), 1, rng.randrange(3))[0],
    GeometryJet: jet,
    NondegenerateAnsatz: lambda rng: generate_instance("nondeg", rng.randint(1, 2), rng.randrange(2)),
    DegenerateAnsatz: lambda rng: generate_instance("deg", rng.randint(1, 2), rng.randrange(2)),
    ReductionReport: lambda rng: reduce_ansatz(generate_instance(rng.choice(("deg", "nondeg")), 1, 0)),
    PlaneWaveData: wave,
}


def test_every_value_class_is_covered():
    modules = (tensor_core, lie_algebra, hom_structure, plane_wave, reduction, wave_table)
    found = {obj for m in modules for obj in vars(m).values() if isinstance(obj, type) and "_fields" in vars(obj)}
    assert found == set(BUILDERS)
    for cls in BUILDERS:
        assert cls._fields == tuple(cls.__annotations__)


def twin_of(cls):
    """A frozen dataclass with cls's name, fields and the defaults _frozen recorded."""
    fields = []
    for name in cls.__annotations__:
        if name not in cls._defaults:
            fields.append((name, object))
        elif type(cls._defaults[name]) is dict:
            fields.append((name, object, dataclasses.field(default_factory=dict)))
        else:
            fields.append((name, object, dataclasses.field(default=cls._defaults[name])))
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def outcome(fn):
    """("ok", value), or the kind and message of the exception fn raised."""
    try:
        return "ok", fn()
    except (AttributeError, TypeError, ValueError) as exc:
        kind = next(k for k in (AttributeError, TypeError, ValueError) if isinstance(exc, k))
        return kind.__name__, str(exc)


def values(obj):
    return {name: getattr(obj, name) for name in type(obj)._fields}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda cls: cls.__name__)
def test_matches_a_frozen_dataclass(cls, seed):
    rng = random.Random(f"{cls.__name__}-{seed}")
    twin = twin_of(cls)
    ours = [BUILDERS[cls](rng) for _ in range(3)]
    if "__init__" not in vars(cls):
        # rebuilt from the stored fields: equal, but not the same objects
        ours += [cls(**values(ours[0])), cls(*values(ours[1]).values())]
    twins = [twin(**values(x)) for x in ours]
    for (a, ta), (b, tb) in itertools.product(zip(ours, twins), repeat=2):
        assert outcome(lambda: a == b) == outcome(lambda: ta == tb)
        assert outcome(lambda: a != b) == outcome(lambda: ta != tb)
    if len(ours) > 3:
        assert ours[3] == ours[0] and ours[4] == ours[1] and ours[3] is not ours[0]
    for a, ta in zip(ours, twins):
        assert a.__eq__(ta) is NotImplemented and a != ta
        assert repr(a) == repr(ta)
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
        before = repr(a)
        for name in (*cls._fields, "not_a_field"):
            assert outcome(lambda: setattr(a, name, 1)) == outcome(lambda: setattr(ta, name, 1))
            assert outcome(lambda: delattr(a, name)) == outcome(lambda: delattr(ta, name))
        assert repr(a) == before


def test_defaults_and_argument_errors():
    twin = twin_of(ReductionReport)
    ours = [ReductionReport("inconsistent", {}, Fraction(1)) for _ in range(2)]
    assert repr(ours[0]) == repr(twin("inconsistent", {}, Fraction(1)))
    # a dict default is a fresh dict per instance, as default_factory=dict gives
    assert ours[0].checks == {} and ours[0].checks is not ours[1].checks
    assert ReductionReport(verdict="x", residuals={}, lambda_scale=1, checks={"a": 1}).checks == {"a": 1}
    for args, kwargs in [((), {}), (("x",), {}), (("x", {}, 1), {"verdict": "y"}),
                         (("x", {}, 1), {"bogus": 1}), (("x", {}, 1, (), None, None, {}, 9), {})]:
        assert outcome(lambda: ReductionReport(*args, **kwargs))[0] == "TypeError"
        assert outcome(lambda: twin(*args, **kwargs))[0] == "TypeError"


def test_ansatz_and_twin_without_h_basis():
    # h_basis is a cached_property on the class, so its () default is read from _frozen's record
    assert NondegenerateAnsatz._defaults == {"h_basis": ()}
    twin = twin_of(NondegenerateAnsatz)
    for n in (1, 2):
        fields = {k: v for k, v in values(generate_instance("nondeg", n, 0)).items() if k != "h_basis"}
        ours, theirs = NondegenerateAnsatz(**fields), twin(**fields)
        assert ours.h_basis == theirs.h_basis == ()
        assert repr(ours) == repr(theirs)
        assert outcome(lambda: hash(ours)) == outcome(lambda: hash(theirs))


def test_post_init_setattr_and_cached_property_still_write():
    algebra = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    assert algebra._rows == {(0, 1): {2: 1}, (1, 0): {2: -1}}
    t = Tensor.from_entries(2, ("d",), {(1,): 3})
    assert "components" not in vars(t)
    assert t.components == (0, 3) and "components" in vars(t)
    assert t == Tensor.from_entries(2, ("d",), {(1,): 3}) and "components" not in repr(t)
