import random

import pytest

from surfpoly import corpus
from surfpoly.corpus import random_maps, random_maps_of_genus
from surfpoly.errors import InternalInvariantError, SurfPolyError
from surfpoly.maps import (
    CombinatorialMap,
    random_map,
    random_rotation,
    rotation_has_genus,
    rotation_map,
    serialize_map,
)

# (edges, genus, count, stratum index) of every genus stratum of the full
# benchmark pools in bench/workloads.py; a stratum's seed is seed * 1009 + index
BENCH_GENUS_STRATA = [
    (10, 3, 80, 0),  # spec
    (8, 2, 60, 0),  # mdual
    (8, 3, 60, 1),
    (12, 1, 300, 0),  # recursive
    (7, 1, 28, 1),  # homology
    (8, 1, 28, 5),
    (7, 2, 28, 3),
    (8, 2, 28, 7),
]


def _sampled_the_old_way(count, genus, max_edges, seed, min_edges=1):
    """The sampler as it was written before candidates were counted on
    rotation lists: build every candidate, keep it by its total genus."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = random_map(rng.randint(max(min_edges, 2 * genus), max_edges), rng)
        if m.total_genus == genus:
            out.append(m)
    return out


def test_rotation_count_matches_total_genus():
    rng = random.Random(24)
    rotations = [[]] + [random_rotation(rng.randint(0, 14), rng) for _ in range(20000)]
    disconnected = 0
    for images in rotations:
        m = rotation_map(images)
        disconnected += m.n_components > 1
        for genus in range(8):
            assert rotation_has_genus(images, genus) == (m.total_genus == genus), images
    assert disconnected > 1000
    assert rotation_has_genus([], 0) and not rotation_has_genus([], 1)


def test_empty_rotation_is_kept_at_genus_0():
    assert random_maps_of_genus(3, 0, 0, seed=1, min_edges=0) == [CombinatorialMap({}, {})] * 3


@pytest.mark.parametrize("seed", [1, 2])
def test_genus_sampler_matches_building_every_candidate_on_bench_strata(seed):
    for edges, genus, count, index in BENCH_GENUS_STRATA:
        args = (count, genus, edges, seed * 1009 + index)
        new = random_maps_of_genus(*args, min_edges=edges)
        old = _sampled_the_old_way(*args, min_edges=edges)
        assert new == old
        assert [serialize_map(m) for m in new] == [serialize_map(m) for m in old]


@pytest.mark.parametrize("args", [(1, 2, 16, 5), (1, 2, 20, 5), (1, 3, 20, 1)])
def test_genus_sampler_matches_building_every_candidate_on_large_maps(args):
    new = random_maps_of_genus(*args, min_edges=args[2])
    old = _sampled_the_old_way(*args, min_edges=args[2])
    assert new == old
    assert [serialize_map(m) for m in new] == [serialize_map(m) for m in old]


def test_rejected_candidates_build_no_map(monkeypatch):
    verdicts = []
    built = []

    def counted(images, genus):
        verdicts.append(rotation_has_genus(images, genus))
        return verdicts[-1]

    post_init = CombinatorialMap.__post_init__

    def spy(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(corpus, "rotation_has_genus", counted)
    monkeypatch.setattr(CombinatorialMap, "__post_init__", spy)
    maps = random_maps_of_genus(5, 1, 8, seed=3, min_edges=8)
    assert verdicts.count(False) > 10 and verdicts.count(True) == 5
    assert built == maps


def test_kept_map_is_rechecked_by_its_own_genus(monkeypatch):
    monkeypatch.setattr(corpus, "rotation_has_genus", lambda images, genus: True)
    with pytest.raises(InternalInvariantError):
        random_maps_of_genus(10, 1, 4, seed=3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_maps_of_genus(1, 7, 12, 1),
        lambda: random_maps_of_genus(0, 2, 6, 1, min_edges=7),
        lambda: random_maps_of_genus(1, -1, 6, 1),
        lambda: random_maps(1, 3, 1, min_edges=4),
        lambda: random_maps(0, 0, 1),
    ],
)
def test_empty_edge_range_is_refused_before_any_draw(monkeypatch, call):
    def no_draw(*args):
        raise AssertionError("drew a candidate")

    monkeypatch.setattr(corpus, "random_rotation", no_draw)
    monkeypatch.setattr(corpus, "random_map", no_draw)
    with pytest.raises(SurfPolyError):
        call()
