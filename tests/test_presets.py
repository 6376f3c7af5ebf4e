"""Preset builders, the named-group catalog, and small-group identification."""

import tracemalloc

import numpy as np
import pytest

import helpers

from subdirect import (
    alternating,
    catalog_group,
    catalog_names,
    cyclic,
    dicyclic12,
    dihedral,
    direct_product,
    elementary_abelian,
    identify_small_group,
    is_isomorphic,
    quaternion8,
    symmetric,
)
import subdirect.groups as groups
import subdirect.presets as presets
from subdirect.presets import preset_descriptions
from subdirect.specs import PRESETS


def test_cyclic_orders():
    for n in (1, 2, 5, 12):
        G = cyclic(n)
        G.validate()
        assert G.order == n
        assert G.exponent() == n


def test_dihedral_structure():
    D = dihedral(8)
    D.validate()
    assert D.order == 8
    assert not D.is_abelian
    orders = sorted(D.element_order(g) for g in range(8))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_dihedral_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        dihedral(5)
    with pytest.raises(ValueError):
        dihedral(0)
    assert dihedral(2).order == 2


def test_symmetric_parity_split():
    G = symmetric(4)
    G.validate()
    assert G.order == 24
    A = alternating(4)
    assert A.order == 12
    # Permutation labels of the alternating preset are all even.
    # The symmetric preset enumerates permutations in lexicographic order,
    # so parity can be recomputed independently per index.
    import itertools
    perms = list(itertools.permutations(range(4)))
    evens = [i for i, p in enumerate(perms) if helpers.perm_parity(p) == 0]
    assert len(evens) == 12


def test_quaternion_structure():
    Q = quaternion8()
    Q.validate()
    assert Q.order == 8
    assert sorted(Q.element_order(g) for g in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert not is_isomorphic(Q, dihedral(8))


def test_elementary_abelian():
    E = elementary_abelian(2, 3)
    E.validate()
    assert E.order == 8
    assert E.exponent() == 2
    with pytest.raises(ValueError):
        elementary_abelian(4, 2)


@pytest.mark.parametrize("p, k", [(2, 0), (2, 1), (3, 1), (2, 4), (3, 3),
                                  (5, 2), (7, 2)])
def test_elementary_abelian_table_matches_the_digit_sum_formula(p, k):
    E = elementary_abelian(p, k)
    assert E.product.tobytes() == helpers.digit_vector_table(p, k).tobytes()


def test_elementary_abelian_builds_no_wide_intermediate():
    tracemalloc.start()
    try:
        E = elementary_abelian(2, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * E.product.nbytes


def test_cyclic_and_dihedral_tables_match_the_old_formulas():
    for n in range(1, 65):
        assert (cyclic(n).product.tobytes()
                == helpers.residue_sum_table(n).tobytes()), n
        assert (dihedral(2 * n).product.tobytes()
                == helpers.signed_residue_table(2 * n).tobytes()), n


@pytest.mark.parametrize("build", [cyclic, dihedral])
def test_cyclic_and_dihedral_build_no_wide_intermediate(build):
    tracemalloc.start()
    try:
        G = build(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.product.dtype == np.int32
    assert peak <= 1.5 * G.product.nbytes


class _TableStarted(Exception):
    """Raised where a preset would start to build its table."""


@pytest.mark.parametrize("preset, args", [
    ("symmetric", (8,)),
    ("alternating", (8,)),
    ("elementary_abelian", (2, 15)),
    ("elementary_abelian", (3, 10)),
], ids=["S8", "A8", "E2^15", "E3^10"])
def test_presets_have_no_order_limit_of_their_own(monkeypatch, preset,
                                                  args):
    """The builders have no order limit of their own, as the one preset
    cap is ``max_order`` in ``specs``: each of these, above 20 000
    elements, reaches its table build, stopped here (E3^10 would be a
    14 GB table)."""
    def stop(*_):
        raise _TableStarted

    class NoNumpy:
        def __getattr__(self, name):
            raise _TableStarted

    monkeypatch.setattr(presets, "from_permutations", stop)
    monkeypatch.setattr(presets, "np", NoNumpy())
    build, _, order = PRESETS[preset]
    assert order(*args) > 20000
    with pytest.raises(_TableStarted):
        build(*args)


def test_dicyclic12():
    G = dicyclic12()
    G.validate()
    assert G.order == 12
    assert not G.is_abelian
    assert not is_isomorphic(G, alternating(4))
    assert not is_isomorphic(G, dihedral(12))


def test_catalog_contents():
    names = catalog_names()
    assert names == ("C2", "C3", "C4", "C2xC2", "C6", "S3", "D8", "Q8")
    for name in names:
        G = catalog_group(name)
        G.validate()
        assert catalog_group(name) is G


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog_group("F20")


def test_identify_small_group():
    assert identify_small_group(symmetric(3)) == "S3"
    assert identify_small_group(dihedral(6)) == "S3"
    assert identify_small_group(quaternion8()) == "Q8"
    assert identify_small_group(cyclic(4)) == "C4"
    assert identify_small_group(elementary_abelian(2, 2)) == "C2xC2"
    assert identify_small_group(alternating(4)) == "A4"
    assert identify_small_group(dicyclic12()) == "Dic12"
    assert identify_small_group(symmetric(4)) is None


def test_identify_small_group_searches_once_per_group(monkeypatch):
    search = groups.find_isomorphism
    searched = []

    def counting(G, rep):
        searched.append(rep)
        return search(G, rep)

    monkeypatch.setattr(groups, "find_isomorphism", counting)
    G = quaternion8()
    assert identify_small_group(G) == "Q8"
    first = len(searched)
    assert first > 0
    assert identify_small_group(G) == "Q8"
    assert len(searched) == first


def test_identify_covers_products():
    GH = direct_product(cyclic(2), cyclic(4)).group
    assert identify_small_group(GH) == "C2xC4"
    HK = direct_product(cyclic(2), cyclic(6)).group
    assert identify_small_group(HK) == "C2xC6"


def test_preset_descriptions_lines():
    lines = preset_descriptions()
    assert any("cyclic" in line for line in lines)
    assert any("dihedral" in line for line in lines)
    assert all(isinstance(line, str) for line in lines)
