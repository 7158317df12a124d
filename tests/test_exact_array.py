"""The sparse exact array and its contractions against plain Fraction numpy.

Every einsum spec that the connection chain and plane_wave contract (and
those reduction used to) is run on fixed-seed Fraction arrays, as
SparseArrays through wave_curvature's pairwise joins and through
np.einsum on the Fractions themselves; the two must agree entry for
entry, and every result must hold only nonzero Python int numerators,
inside its shape, over a positive int denominator.  So must @, every
tensordot axes form, the arithmetic and the full-index reads the chain
uses.  A SparseArray is built once, from an {index: value} dict, and is
never written after.  The float backend must give the bytes numpy gives,
and numpy arrays are refused beside SparseArrays.
"""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import homkit
from homkit import plane_wave, wave_curvature
from homkit.wave_curvature import SPARSE, SparseArray, einsum, tensordot

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


def named_calls(module, name):
    """(function text, call node) of every call of a function called name in a homkit module."""
    tree = ast.parse(Path(homkit.__file__).with_name(f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                yield ast.unparse(func), node


def spelled_contractions(module):
    """(enclosing function, call text) of every einsum call in a module whose spec is not a literal."""
    tree = ast.parse(Path(homkit.__file__).with_name(f"{module}.py").read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("einsum")
                        and not isinstance(node.args[0], ast.Constant)):
                    yield fn.name, ast.unparse(node)


# the one einsum whose spec is computed: the sparse tensordot runs the einsum its axes spell
SPELLED = ("tensordot", "einsum(_tensordot_spec(a.ndim, b.ndim, axes), a, b)")


@pytest.mark.parametrize("module", ["plane_wave", "reduction", "wave_curvature"])
def test_specs_cover_every_library_contraction(module):
    calls = list(named_calls(module, "einsum"))
    # reduction contracts on sparse Tensor numerators and calls no einsum;
    # the specs it used stay below as kernel cases
    assert bool(calls) is (module != "reduction")
    assert list(spelled_contractions(module)) == ([SPELLED] if module == "wave_curvature" else [])
    # the shared chain contracts through its backend, and plane_wave's
    # float-only derivatives through numpy itself
    want = {"plane_wave": "np.einsum", "wave_curvature": "be.einsum"}.get(module)
    for func, node in calls:
        if ast.unparse(node) == SPELLED[1]:  # checked above
            continue
        assert func == want
        kw = {k.arg: ast.literal_eval(k.value) for k in node.keywords}
        assert (node.args[0].value, kw) in SPECS


def test_every_tensordot_in_plane_wave_goes_through_the_kernel():
    # S, dS and the frame conversion each run as a tensordot chain, on the backend the chain is given
    chain = [func for func, _ in named_calls("wave_curvature", "tensordot")]
    assert chain.count("be.tensordot") >= 9
    # the rest is @ on SparseArrays
    assert set(chain) == {"be.tensordot", "tensordot"} and chain.count("tensordot") == 1
    assert not list(named_calls("plane_wave", "tensordot"))
    assert plane_wave.NUMPY.tensordot is plane_wave._tensordot
    assert wave_curvature.SPARSE.tensordot is tensordot


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


def sparse(a):
    """The SparseArray of a numpy object array, nested lists or a scalar, through the sparse constructor."""
    a = np.asarray(a, dtype=object)
    return SPARSE.array(a.shape, dict(np.ndenumerate(a)))


def fractions(q):
    """A SparseArray's entries as an object array of Fractions (a Fraction for shape ()).

    Checks that q holds only nonzero Python int numerators at indices
    inside its shape, over a positive Python int denominator."""
    assert isinstance(q, SparseArray) and type(q.den) is int and q.den > 0
    assert type(q.shape) is tuple and all(type(n) is int for n in q.shape)
    for idx, v in q.nums.items():
        assert type(v) is int and v != 0
        assert type(idx) is tuple and len(idx) == len(q.shape)
        assert all(type(i) is int and 0 <= i < n for i, n in zip(idx, q.shape))
    if q.shape == ():
        return Fraction(q.nums.get((), 0), q.den)
    out = np.full(q.shape, Fraction(0), dtype=object)
    for idx, v in q.nums.items():
        out[idx] = Fraction(v, q.den)
    return out


def qeinsum(spec, *ops, **kw):
    """The sparse einsum on the SparseArrays of Fraction operands, converted back to Fractions."""
    return fractions(einsum(spec, *map(sparse, ops), **kw))


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
    ((3,), (3, 3)),
    ((2, 3, 3, 3), (3, 3)),
    ((4, 2), (2, 5)),
    ((3, 3), (3,)),
    ((3,), (3,)),
])
def test_matmul_matches_fraction_matmul(a_shape, b_shape, dens):
    rng = random.Random(f"{a_shape}{b_shape}:{dens[-1]}")
    a, b = fraction_array(rng, a_shape, dens), fraction_array(rng, b_shape, dens)
    assert_same(fractions(sparse(a) @ sparse(b)), a @ b)


def test_matmul_refuses_a_stack_on_the_right():
    # numpy would broadcast a stack of matrices; the chain multiplies vectors and matrices only
    a, b = (sparse(np.ones(shape, dtype=int).astype(object)) for shape in ((3, 3), (3, 3, 3)))
    with pytest.raises(ValueError, match="vector or a matrix"):
        a @ b


def test_all_zero_and_all_int_operands():
    zero = np.full((3, 3), Fraction(0), dtype=object)
    ints = np.array([[-4, -3, -2], [-1, 0, 1], [2, 3, 4]], dtype=object)
    for a, b in ((zero, zero), (ints, ints), (zero, ints)):
        assert_same(qeinsum("ij,jk->ik", a, b), np.einsum("ij,jk->ik", a, b))
        assert_same(fractions(sparse(a) @ sparse(b)), a @ b)


def test_size_zero_axis():
    rng = random.Random(1)
    a = fraction_array(rng, (3, 0), LARGE)
    b = fraction_array(rng, (0, 2), LARGE)
    assert_same(qeinsum("ij,jk->ik", a, b), np.einsum("ij,jk->ik", a, b))
    assert_same(fractions(sparse(a) @ sparse(b)), a @ b)
    assert_same(qeinsum("ij,jk->ik", b.T, a.T), np.einsum("ij,jk->ik", b.T, a.T))
    # an empty output
    assert_same(qeinsum("ij,ik->jk", a, a), np.einsum("ij,ik->jk", a, a))


def test_full_contraction_keeps_numpy_return_kind():
    rng = random.Random(2)
    v = fraction_array(rng, (4,), LARGE, fill=1.0)
    assert_same(qeinsum("i,i->", v, v), np.einsum("i,i->", v, v))


@pytest.mark.parametrize("bad", [0.5, np.float64(0.5), True, np.int64(3), "1/2", None])
def test_entry_that_is_not_int_or_fraction_raises(bad):
    # a float, a bool and a numpy scalar all have as_integer_ratio, so each is refused by its type
    entries = {(0, 0): Fraction(1, 3), (0, 1): bad, (1, 0): 1, (1, 1): Fraction(2)}
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        SPARSE.array((2, 2), entries)


def test_constructor_reads_zero_dim_arrays_and_refuses_other_shapes_and_indices():
    third, zero = sparse(Fraction(1, 3)), sparse(Fraction(0))
    assert third.shape == () and third.nums == {(): 1} and third.den == 3 and zero.nums == {}
    q = SPARSE.array((2, 3), {(0, 0): third, (0, 2): zero, (1, 1): Fraction(-5, 7), (1, 2): 0, (0, 1): 2})
    # one lcm of every denominator, the zeros' included, and the zeros dropped
    assert (q.shape, q.den, q.nums) == ((2, 3), 21, {(0, 0): 7, (1, 1): -15, (0, 1): 42})
    assert SPARSE.array((0, 2), {}).shape == (0, 2) and SPARSE.array((), {}).den == 1
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        SPARSE.array((2,), {(0,): sparse([1, 2])})
    for idx in ((2, 0), (0, -1), (0,), (0, 0, 0)):
        with pytest.raises(IndexError, match="outside the shape"):
            SPARSE.array((2, 3), {idx: 1})


def test_full_index_reads_a_zero_dim_array():
    a = np.array([[Fraction(1, 3), 0, 7], [Fraction(-2, P1), 5, 0]], dtype=object)
    q = sparse(a)
    for idx in itertools.product(range(2), range(3)):
        got = q[idx]
        assert isinstance(got, SparseArray) and got.shape == ()
        assert fractions(got) == a[idx]
    assert fractions(sparse([4, Fraction(1, 6)])[1]) == Fraction(1, 6)
    for idx in ((2, 0), (0, 3), (0, -1), (0,), (0, 0, 0)):
        with pytest.raises(IndexError, match="outside the shape"):
            q[idx]
    # only full indices of ints are read, never a region
    with pytest.raises(TypeError):
        q[0, slice(None)]


def test_arrays_are_never_written():
    # no region assignment and no nested-list reader: the constructor is the only way in
    assert not hasattr(SparseArray, "__setitem__") and not hasattr(SparseArray, "of")
    q = sparse([1, 2])
    with pytest.raises(TypeError):
        q[0] = 3
    for backend in (SPARSE, plane_wave.NUMPY):
        assert not hasattr(backend, "zeros") and callable(backend.array)
    # every item assignment in wave_curvature writes a dict its function built itself
    tree = ast.parse(Path(wave_curvature.__file__).read_text())
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        dicts = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 and isinstance(node.value, (ast.Dict, ast.DictComp)) for t in node.targets
                 if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AugAssign) else [])
            for t in targets:
                for sub in ast.walk(t):
                    if isinstance(sub, ast.Subscript):
                        assert isinstance(sub.value, ast.Name) and sub.value.id in dicts, (fn.name, ast.unparse(t))


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_numeric_operand_beside_an_exact_one_raises(dtype):
    fractions = np.full((2, 2), Fraction(1, 3), dtype=object)
    numeric = np.ones((2, 2), dtype=dtype)
    with pytest.raises(TypeError, match="needs SparseArrays, not SparseArray, ndarray"):
        einsum("ij,jk->ik", sparse(fractions), numeric)
    # a Fraction object array is refused too, beside anything
    for ops in ((fractions, numeric), (numeric, fractions), (fractions, fractions)):
        with pytest.raises(TypeError, match="not ndarray, ndarray"):
            einsum("ij,jk->ik", *ops)


def test_float_input_is_bit_identical_to_numpy():
    rng = np.random.default_rng(3)
    for spec, kw in SPECS:
        ops = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
               for shape in operand_shapes(spec, 3)]
        got, want = plane_wave.NUMPY.einsum(spec, *ops, **kw), np.einsum(spec, *ops, **kw)
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
    got = tensordot(sparse(a), sparse(b), axes)
    assert isinstance(got, SparseArray)
    want = np.tensordot(a, b, axes)
    # a full contraction reads as a scalar, as einsum's does
    assert_same(fractions(got), want[()] if want.shape == () else want)


def test_tensordot_float_input_is_numpy_tensordot():
    rng = np.random.default_rng(4)
    for (a_shape, b_shape), axes in TENSORDOT_CASES:
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        got, want = plane_wave._tensordot(a, b, axes), np.tensordot(a, b, axes)
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
        plane_wave._tensordot(a, b, axes)
    exact = [sparse(np.ones(shape, dtype=int).astype(object)) for shape in shapes]
    with pytest.raises(type(want.value)):
        tensordot(*exact, axes)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_tensordot_refuses_mixed_and_object_operands(dtype):
    fractions = np.full((2, 2), Fraction(1, 3), dtype=object)
    numeric = np.ones((2, 2), dtype=dtype)
    for ops, kinds in (((sparse(fractions), numeric), "SparseArray, ndarray"),
                       ((numeric, sparse(fractions)), "ndarray, SparseArray")):
        with pytest.raises(TypeError, match=f"needs SparseArrays, not {kinds}"):
            tensordot(*ops, 1)
    for ops in ((fractions, numeric), (numeric, fractions), (fractions, fractions)):
        with pytest.raises(TypeError, match="not ndarray, ndarray"):
            tensordot(*ops, 1)


@pytest.mark.parametrize("dens", [SMALL, LARGE])
def test_arithmetic_matches_fraction_arrays(dens):
    rng = random.Random(f"arithmetic:{dens[-1]}")
    for shape in ((), (3,), (2, 3), (3, 0), (2, 3, 4)):
        # all Fractions, so numpy's / stays exact
        a, b = (fraction_array(rng, shape, dens) + Fraction(0) for _ in range(2))
        qa, qb = sparse(a), sparse(b)
        assert_same(fractions(qa + qb), a + b)
        assert_same(fractions(qa - qb), a - b)
        assert_same(fractions(qa - qa), a - a)
        assert_same(fractions(-qa), -a)
        for k in (0, 1, -3, 4, Fraction(-2, P1)):
            assert_same(fractions(k * qa), k * a)
            assert_same(fractions(qa * k), a * k)
            if k:
                assert_same(fractions(qa / k), a / k)
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                qa / zero
    with pytest.raises(ValueError, match="shapes"):
        sparse([1, 2]) + sparse([1, 2, 3])


def test_division_runs_on_integers(monkeypatch):
    # the chain's / 2 scales the numerators and the den, with no Fraction built
    q = sparse([Fraction(1, 3), 0, Fraction(-5, 7)])
    monkeypatch.setattr(wave_curvature, "Fraction", None)
    for k, den, nums in ((2, 42, {(0,): 7, (2,): -15}), (-2, 42, {(0,): -7, (2,): 15}),
                         (Fraction(-4, 3), 84, {(0,): -21, (2,): 45})):
        got = q / k
        assert (got.den, got.nums, got.shape) == (den, nums, (3,))


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (1, 2, 3, 2)])
def test_transpose_matches_numpy(shape):
    rng = random.Random(f"transpose:{shape}")
    a = fraction_array(rng, shape, LARGE)
    q = sparse(a)
    for perm in itertools.permutations(range(len(shape))):
        assert_same(fractions(q.transpose(*perm)), a.transpose(*perm))
        negative = [k - len(shape) for k in perm]
        assert_same(fractions(q.transpose(*negative)), a.transpose(*negative))
    with pytest.raises(ValueError, match="permute"):
        q.transpose(*[0] * len(shape)) if len(shape) > 1 else q.transpose(0, 0)


def test_plans_are_cached_per_spec_and_shapes():
    wave_curvature._plan.cache_clear()
    a, b = sparse(np.ones((2, 3), dtype=int).astype(object)), sparse([1, 2, 3])
    for _ in range(3):
        einsum("ij,j->i", a, b)
    assert wave_curvature._plan.cache_info().misses == 1
    with pytest.raises(ValueError, match="shape-mismatch"):
        einsum("ij,i->j", a, b)
    with pytest.raises(ValueError, match="shape-mismatch"):
        einsum("ii,i->i", a, b)
    with pytest.raises(ValueError, match="shape-mismatch"):
        einsum("ij->ji", a)
