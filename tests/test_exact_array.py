"""The integer-numerator contraction kernel against plain Fraction numpy.

Every einsum spec that plane_wave contracts (and those reduction used
to) is run on fixed-seed Fraction arrays, as QArrays through the kernel
and through np.einsum on the Fractions themselves; the two must agree entry for
entry, and the kernel's result must convert to Fractions only.  float64
input must come back with the bytes np.einsum gives, and a Fraction
object array is refused.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import homkit
from homkit._exact_array import QArray, einsum, tensordot

P1, P2 = 1_000_000_007, 999_999_937
SMALL = (1, 2, 3, 4, 6)
LARGE = (1, 3, P1, P2, P1 * P2, 7 * P1)

# (spec, keyword arguments), as the library calls them
SPECS = [
    ("rs,mns->rmn", {}),
    ("ra,kab,bs->krs", {}),
    ("krs,mns->krmn", {}),
    ("rs,kmns->krmn", {}),
    ("kra,lab,bs->klrs", {}),
    ("ra,klab,bs->klrs", {}),
    ("ra,lab,kbs->klrs", {}),
    ("klrs,mns->klrmn", {}),
    ("krs,lmns->klrmn", {}),
    ("lrs,kmns->klrmn", {}),
    ("rs,klmns->klrmn", {}),
    ("rml,lns->rsmn", {}),
    ("rl,lsmn->rsmn", {}),
    ("mns,rs->mnr", {}),
    ("kmns,rs->kmnr", {}),
    ("mns,krs->kmnr", {}),
    ("lkm,ln->kmn", {}),
    ("lkn,ml->kmn", {}),
    ("lkm,lns->kmns", {}),
    ("lkn,mls->kmns", {}),
    ("lks,mnl->kmns", {}),
    ("krml,lns->krsmn", {}),
    ("rml,klns->krsmn", {}),
    ("krnl,lms->krsmn", {}),
    ("rnl,klms->krsmn", {}),
    ("krl,lsmn->krsmn", {}),
    ("rl,klsmn->krsmn", {}),
    ("lkr,lsmn->krsmn", {}),
    ("lks,rlmn->krsmn", {}),
    ("lkm,rsln->krsmn", {}),
    ("lkn,rsml->krsmn", {}),
    ("abc,am,bn,cs->mns", {}),
    ("abc,kam,bn,cs->kmns", {}),
    ("abc,am,kbn,cs->kmns", {}),
    ("abc,am,bn,kcs->kmns", {}),
    ("cr,rtmn,td,ma,nb->abcd", {}),
    ("mi,mab->iab", {}),
    ("al,ljk->ajk", {}),
    ("ijk,kmn->ijmn", {}),
    ("jkl,ilm->ijkm", {}),
    ("jkl,ilmn->ijkmn", {}),
    ("ma,nb,mnk->abk", {}),
]


def library_contractions(module):
    """(spec, keyword arguments) of every einsum call in a homkit module."""
    tree = ast.parse(Path(homkit.__file__).with_name(f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "einsum":
                kw = {k.arg: ast.literal_eval(k.value) for k in node.keywords}
                yield ast.unparse(func), node.args[0].value, kw


@pytest.mark.parametrize("module", ["plane_wave", "reduction"])
def test_specs_cover_every_library_contraction(module):
    calls = list(library_contractions(module))
    # reduction contracts on sparse Tensor numerators and calls no einsum;
    # the specs it used stay below as kernel cases
    assert bool(calls) is (module == "plane_wave")
    for func, spec, kw in calls:
        assert func == "einsum", "contractions go through the integer kernel"
        assert (spec, kw) in SPECS


def test_every_tensordot_in_plane_wave_goes_through_the_kernel():
    tree = ast.parse(Path(homkit.__file__).with_name("plane_wave.py").read_text())
    funcs = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    calls = [ast.unparse(f) for f in funcs
             if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "tensordot"]
    # S, dS and the exact frame conversion each run as a tensordot chain
    assert len(calls) >= 3
    assert set(calls) == {"tensordot"}, "contractions go through the integer kernel"
    from homkit import _exact_array, plane_wave
    assert plane_wave.tensordot is _exact_array.tensordot


def operand_shapes(spec, size):
    return [(size,) * len(term) for term in spec.split("->")[0].split(",")]


def fraction_array(rng, shape, dens, fill=0.6):
    """Negative, zero and int entries among Fractions with denominators from dens."""
    out = []
    for _ in range(int(np.prod(shape))):
        r = rng.random()
        if r > fill:
            out.append(Fraction(0))
        elif r < 0.15:
            out.append(rng.randint(-5, 5))
        else:
            out.append(Fraction(rng.randint(-9, 9) * rng.choice((1, P1)), rng.choice(dens)))
    return np.array(out, dtype=object).reshape(shape)


def fractions(q):
    """A QArray's entries as an object array of Fractions (one Fraction for a scalar num)."""
    if not isinstance(q.num, np.ndarray):
        return Fraction(q.num, q.den)
    return np.array([Fraction(v, q.den) for v in q.num.ravel().tolist()], dtype=object).reshape(q.shape)


def qeinsum(spec, *ops, **kw):
    """The kernel on the QArrays of Fraction operands, converted back to Fractions."""
    return fractions(einsum(spec, *map(QArray.of, ops), **kw))


def assert_same(got, want):
    assert np.shape(got) == np.shape(want)
    assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray)
    for g, w in zip(np.ravel(got), np.ravel(want)):
        assert type(g) is Fraction
        assert g == w


@pytest.mark.parametrize("dens", [SMALL, LARGE])
@pytest.mark.parametrize("spec,kw", SPECS)
def test_einsum_matches_fraction_einsum(spec, kw, dens):
    rng = random.Random(f"{spec}:{dens[-1]}")
    ops = [fraction_array(rng, shape, dens) for shape in operand_shapes(spec, 3)]
    assert_same(qeinsum(spec, *ops, **kw), np.einsum(spec, *ops, **kw))


@pytest.mark.parametrize("dens", [SMALL, LARGE])
@pytest.mark.parametrize("a_shape,b_shape", [
    ((3, 3), (3, 3)),
    ((3, 3, 3), (3, 3)),
    ((3, 3), (3, 3, 3)),
    ((2, 3, 3, 3), (3, 3)),
    ((4, 2), (2, 5)),
])
def test_matmul_matches_fraction_matmul(a_shape, b_shape, dens):
    rng = random.Random(f"{a_shape}{b_shape}:{dens[-1]}")
    a, b = fraction_array(rng, a_shape, dens), fraction_array(rng, b_shape, dens)
    assert_same(fractions(QArray.of(a) @ QArray.of(b)), a @ b)


def test_all_zero_and_all_int_operands():
    zero = np.full((3, 3), Fraction(0), dtype=object)
    ints = np.array([[-4, -3, -2], [-1, 0, 1], [2, 3, 4]], dtype=object)
    for a, b in ((zero, zero), (ints, ints), (zero, ints)):
        assert_same(qeinsum("ij,jk->ik", a, b), np.einsum("ij,jk->ik", a, b))
        assert_same(fractions(QArray.of(a) @ QArray.of(b)), a @ b)


def test_size_zero_axis():
    rng = random.Random(1)
    a = fraction_array(rng, (3, 0), LARGE)
    b = fraction_array(rng, (0, 2), LARGE)
    assert_same(qeinsum("ij,jk->ik", a, b), np.einsum("ij,jk->ik", a, b))
    assert_same(fractions(QArray.of(a) @ QArray.of(b)), a @ b)
    assert_same(qeinsum("ij,jk->ik", b.T, a.T), np.einsum("ij,jk->ik", b.T, a.T))
    # an empty output
    assert_same(qeinsum("ij,ik->jk", a, a), np.einsum("ij,ik->jk", a, a))


def test_full_contraction_keeps_numpy_return_kind():
    rng = random.Random(2)
    v = fraction_array(rng, (4,), LARGE, fill=1.0)
    assert_same(qeinsum("i,i->", v, v), np.einsum("i,i->", v, v))


@pytest.mark.parametrize("bad", [0.5, np.float64(0.5), True, np.int64(3), "1/2", None])
def test_entry_that_is_not_int_or_fraction_raises(bad):
    a = np.array([[Fraction(1, 3), bad], [1, Fraction(2)]], dtype=object)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        QArray.of(a)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_numeric_operand_beside_an_exact_one_raises(dtype):
    fractions = np.full((2, 2), Fraction(1, 3), dtype=object)
    numeric = np.ones((2, 2), dtype=dtype)
    with pytest.raises(TypeError, match=f"QArray, dtype {np.dtype(dtype)}"):
        einsum("ij,jk->ik", QArray.of(fractions), numeric)
    # a Fraction object array is refused outright, beside anything
    for ops in ((fractions, numeric), (numeric, fractions), (fractions, fractions)):
        with pytest.raises(TypeError, match="dtype object"):
            einsum("ij,jk->ik", *ops)


def test_float_input_is_bit_identical_to_numpy():
    rng = np.random.default_rng(3)
    for spec, kw in SPECS:
        ops = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
               for shape in operand_shapes(spec, 3)]
        got, want = einsum(spec, *ops, **kw), np.einsum(spec, *ops, **kw)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


# (operand shapes, axes) of tensordot calls: plane_wave's chains and a few more
TENSORDOT_CASES = [
    (((3, 3, 3), (3, 3)), (0, 0)),
    (((3, 3, 3), (3, 3)), (1, 0)),
    (((3, 3, 3), (3, 3, 3)), (0, 1)),
    (((3, 3), (3, 3, 3, 3)), (1, 0)),
    (((3, 3, 3, 3), (3, 3)), (1, 0)),
    (((2, 3, 4), (4, 3, 5)), ((1, 2), (1, 0))),
    (((4, 2), (2, 5)), 1),
    (((3,), (3,)), 1),
    (((3, 0), (0, 2)), (1, 0)),
    (((3, 4, 2), (2, 4, 5)), ((-2, -1), (1, 0))),
    (((3, 2), (2, 3)), (-1, -2)),
    (((2, 3), (4,)), 0),
    (((2, 3, 4), (3, 4, 5)), 2),
    (((3, 0, 2), (2, 0, 4)), ((1, 2), (1, 0))),
]


@pytest.mark.parametrize("dens", [SMALL, LARGE])
@pytest.mark.parametrize("shapes,axes", TENSORDOT_CASES)
def test_tensordot_matches_fraction_tensordot(shapes, axes, dens):
    rng = random.Random(f"{shapes}{axes}:{dens[-1]}")
    a, b = (fraction_array(rng, shape, dens) for shape in shapes)
    got = tensordot(QArray.of(a), QArray.of(b), axes)
    assert isinstance(got, QArray)
    assert_same(fractions(got), np.tensordot(a, b, axes))


def test_tensordot_float_input_is_numpy_tensordot():
    rng = np.random.default_rng(4)
    for (a_shape, b_shape), axes in TENSORDOT_CASES:
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        got, want = tensordot(a, b, axes), np.tensordot(a, b, axes)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shapes,axes", [
    (((3, 4), (4, 3)), ((0, 1), (0, 1))),  # equal sizes in total, not axis by axis
    (((3, 3), (3, 3)), ((0, 1), (0,))),
    (((3, 3), (3, 3)), (2, 0)),
    (((3, 3), (3, 3)), (0, -3)),
    (((3, 3), (3, 3)), ((0, 0), (0, 1))),
    (((3, 3), (3, 3)), 3),
])
def test_tensordot_refuses_what_numpy_refuses(shapes, axes):
    a, b = (np.ones(shape) for shape in shapes)
    with pytest.raises(Exception) as want:
        np.tensordot(a, b, axes)
    with pytest.raises(type(want.value)):
        tensordot(a, b, axes)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_tensordot_refuses_mixed_and_object_operands(dtype):
    fractions = np.full((2, 2), Fraction(1, 3), dtype=object)
    numeric = np.ones((2, 2), dtype=dtype)
    for ops, kinds in (((QArray.of(fractions), numeric), f"QArray, dtype {np.dtype(dtype)}"),
                       ((numeric, QArray.of(fractions)), f"dtype {np.dtype(dtype)}, QArray")):
        with pytest.raises(TypeError, match=f"tensordot operands .* not {kinds}"):
            tensordot(*ops, 1)
    for ops in ((fractions, numeric), (numeric, fractions), (fractions, fractions)):
        with pytest.raises(TypeError, match="dtype object"):
            tensordot(*ops, 1)
