import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvbessel.partitions import (
    Partition,
    co_covers,
    dominance_leq,
    partitions_in_box,
    partitions_of,
    partitions_up_to,
    skew_standard_chains,
    standard_tableaux_count,
)

parts_strategy = st.lists(st.integers(0, 6), max_size=5).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_basic_shape():
    lam = Partition((3, 1))
    assert lam.weight() == 4
    assert lam.length() == 2
    assert lam.part(1) == 3 and lam.part(2) == 1 and lam.part(5) == 0
    assert lam.conjugate() == Partition((2, 1, 1))
    assert Partition((3, 1, 0, 0)) == lam


def test_invalid_partition():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


@pytest.mark.parametrize("parts", [(2, 1), (), (3, 3, 1)])
def test_copy_and_pickle_keep_an_immutable_partition(parts):
    lam = Partition(parts)
    clones = [copy.copy(lam), copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))]
    for clone in clones:
        assert type(clone) is Partition and clone == lam and hash(clone) == hash(lam)
        with pytest.raises(AttributeError, match="Partition is immutable"):
            clone.parts = (9,)
        with pytest.raises(AttributeError, match="Partition is immutable"):
            del clone.parts
        assert clone.parts == lam.parts


@given(parts_strategy)
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().weight() == lam.weight()


def test_dominance():
    assert dominance_leq(Partition((2, 2)), Partition((3, 1)))
    assert not dominance_leq(Partition((3, 1)), Partition((2, 2)))
    assert not dominance_leq(Partition((2,)), Partition((3, 1)))  # unequal weight


@given(parts_strategy, parts_strategy)
def test_dominance_conjugate_antitone(lam, mu):
    if lam.weight() == mu.weight() and dominance_leq(mu, lam):
        assert dominance_leq(lam.conjugate(), mu.conjugate())


def test_add_remove_box():
    lam = Partition((2, 1))
    assert lam.add_box(1) == Partition((3, 1))
    assert lam.add_box(3) == Partition((2, 1, 1))
    assert lam.add_box(2) == Partition((2, 2))
    assert Partition((2, 2)).add_box(2) is None
    assert lam.remove_box(2) == Partition((2,))
    assert lam.remove_box(3) is None


def test_co_covers():
    ups = co_covers(Partition((2, 1)), 3, "up")
    assert {p for _, p in ups} == {
        Partition((3, 1)),
        Partition((2, 2)),
        Partition((2, 1, 1)),
    }
    downs = co_covers(Partition((2, 1)), 3, "down")
    assert {p for _, p in downs} == {Partition((1, 1)), Partition((2,))}


def test_partition_enumeration():
    assert len(partitions_of(5, 5)) == 7
    assert len(partitions_up_to(3, 2)) == 1 + 1 + 2 + 2
    assert Partition(()) in partitions_up_to(3, 2)
    box = partitions_in_box(2, 2)
    assert set(box) == {
        Partition(()),
        Partition((1,)),
        Partition((2,)),
        Partition((1, 1)),
        Partition((2, 1)),
        Partition((2, 2)),
    }


def test_skew_chains_and_tableaux():
    chains = skew_standard_chains(Partition((2, 1)), Partition(()))
    assert len(chains) == standard_tableaux_count(Partition((2, 1))) == 2
    for ch in chains:
        assert ch[0] == Partition((2, 1)) and ch[-1] == Partition(())
        assert [p.weight() for p in ch] == [3, 2, 1, 0]
    # hook length formula spot check: f^(3,2) = 5
    assert standard_tableaux_count(Partition((3, 2))) == 5


@settings(deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=4).map(
        lambda xs: Partition(sorted(xs, reverse=True))
    )
)
def test_chain_count_matches_hook_formula(lam):
    chains = skew_standard_chains(lam, Partition(()))
    assert len(chains) == standard_tableaux_count(lam)
