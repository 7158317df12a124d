"""Ansatz array fields are frozen from their carriers on first read.

Construction parses each array field into its carrier Tensor and stores
no nested tuples; the first read of a public field freezes them from
the carrier and keeps them.  For generated, JSON-parsed, rescaled and
wave-built ansatze of both kinds, ==, hash, repr, to_json and every
public field must equal those of a copy frozen eagerly by a reference
that reads the carrier's entries, whichever of them is read first.
"""

import itertools
from fractions import Fraction

import pytest

from homkit.reduction import (DegenerateAnsatz, NondegenerateAnsatz, ansatz_from_json,
                              ansatz_from_plane_wave, generate_instance, reduce_ansatz)
from homkit.wave_table import PlaneWaveData

PLAIN = {"n", "lam", "aleph", "occupancy"}


def array_fields(ansatz):
    return [name for name in type(ansatz)._fields if name not in PLAIN]


def eager_freeze(t):
    """Nested tuples of Fractions read off a carrier's entries, or a tuple of them for a stack."""
    if isinstance(t, tuple):
        return tuple(eager_freeze(m) for m in t)
    entries = t.entries()
    if t.rank == 0:
        return entries.get((), Fraction(0))

    def level(prefix):
        if len(prefix) == t.rank - 1:
            return tuple(entries.get((*prefix, i), Fraction(0)) for i in range(t.dim))
        return tuple(level((*prefix, i)) for i in range(t.dim))

    return level(())


def eager_copy(ansatz):
    """The same ansatz with every array field already frozen, by eager_freeze."""
    copy = type(ansatz).__new__(type(ansatz))
    vars(copy).update(vars(ansatz))
    vars(copy).update({name: eager_freeze(ansatz._carriers[name]) for name in array_fields(ansatz)})
    return copy


WAVE = PlaneWaveData(2, ((0, Fraction(1, 3)), (Fraction(-1, 3), 0)), ((1, Fraction(1, 2)), (Fraction(1, 2), -2)))


def builders():
    """(label, zero-argument builder of a fresh ansatz) for each way an ansatz is made."""
    out = []
    for case, n, seed in itertools.product(("deg", "nondeg"), (1, 2, 3, 4), (0, 1, 5)):
        out.append((f"gen-{case}-{n}-{seed}", lambda c=case, n=n, s=seed: generate_instance(c, n, s)))
        out.append((f"json-{case}-{n}-{seed}",
                    lambda c=case, n=n, s=seed: ansatz_from_json(generate_instance(c, n, s).to_json())))
    for n, seed in itertools.product((2, 3), (0, 3)):
        out.append((f"rescaled-{n}-{seed}", lambda n=n, s=seed: generate_instance("deg", n, s).rescaled()))
    out.append(("wave", lambda: ansatz_from_plane_wave(WAVE)))
    out.append(("wave-lam", lambda: ansatz_from_plane_wave(WAVE, Fraction(3, 2))))
    return out


BUILDERS = builders()
READS = {
    "eq": lambda a, b: a == b,
    "hash": lambda a, b: hash(a) == hash(b),
    "repr": lambda a, b: repr(a) == repr(b),
    "to_json": lambda a, b: a.to_json() == b.to_json(),
    "fields": lambda a, b: all(getattr(a, k) == getattr(b, k) for k in type(a)._fields),
}


@pytest.mark.parametrize("read", list(READS))
@pytest.mark.parametrize("label, build", BUILDERS, ids=[label for label, _ in BUILDERS])
def test_first_read_matches_an_eagerly_frozen_copy(label, build, read):
    ansatz = build()
    assert not set(array_fields(ansatz)) & set(vars(ansatz))
    assert READS[read](ansatz, eager_copy(build()))
    # the read froze what it read, and every entry point now agrees
    assert all(check(ansatz, eager_copy(build())) for check in READS.values())


def leaves(x):
    if isinstance(x, tuple):
        for y in x:
            yield from leaves(y)
    else:
        yield x


@pytest.mark.parametrize("case", ("deg", "nondeg"))
def test_a_json_parsed_field_reads_as_nested_fraction_tuples(case):
    data = generate_instance(case, 3, 1).to_json()
    ansatz = ansatz_from_json(data)
    for name in array_fields(ansatz):
        value = getattr(ansatz, name)
        assert type(value) is tuple
        assert all(type(x) is Fraction for x in leaves(value)), name
        assert value == eager_freeze(ansatz._carriers[name])
        # reading twice gives the same object
        assert getattr(ansatz, name) is value


def test_nondegenerate_with_and_without_h_basis():
    base = generate_instance("nondeg", 3, 0)
    args = dict(n=3, lam=base.lam, aleph=base.aleph, F=base.F, C=base.C, R=base.R, Scurv=base.Scurv)
    # the class default () is still the default, and does not shadow the frozen field
    without = NondegenerateAnsatz(**args)
    assert without.h_basis == () and without._carriers["h_basis"] == ()
    assert without.to_json()["h_basis"] == []
    data = dict(base.to_json())
    del data["h_basis"]
    assert ansatz_from_json(data) == without
    assert len(base.h_basis) == 3  # seed 0 at n = 3 has a rotation span
    with_basis = NondegenerateAnsatz(**args, h_basis=base.h_basis)
    assert with_basis.h_basis == base.h_basis == eager_freeze(base._carriers["h_basis"])
    assert with_basis == base and hash(with_basis) == hash(base)
    assert with_basis != without


def test_a_reduction_freezes_no_field():
    for case in ("deg", "nondeg"):
        ansatz = generate_instance(case, 3, 2)
        reduce_ansatz(ansatz)
        assert not set(array_fields(ansatz)) & set(vars(ansatz))
    wave = ansatz_from_plane_wave(WAVE)
    reduce_ansatz(wave)
    assert not set(array_fields(wave)) & set(vars(wave))
    assert isinstance(wave, DegenerateAnsatz)
