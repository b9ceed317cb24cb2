"""Deterministic corpora of maps and alternating diagrams for verification."""

from __future__ import annotations

import random
from itertools import permutations, product

from .errors import InternalInvariantError, SurfPolyError
from .links import LinkDiagram, medial_diagram
from .maps import (
    CombinatorialMap,
    random_map,
    random_rotation,
    rotation_has_genus,
    rotation_map,
    standard_alpha,
)


def all_maps(max_edges: int) -> list[CombinatorialMap]:
    """Every map with at most ``max_edges`` edges (and no isolated
    vertices), one representative per isomorphism class, plus the empty map.

    Enumerates all rotation systems over the standard pairing and keeps the
    first of each isomorphism class: its orbit under conjugation by the
    relabelings that commute with the pairing (permute and flip edges).
    """
    out: list[CombinatorialMap] = [CombinatorialMap({}, {})]
    for m in range(1, max_edges + 1):
        darts = range(1, 2 * m + 1)
        alpha = standard_alpha(m)
        relabelings = [
            [0] + [d for i, f in zip(order, flips) for d in (2 * i + 1 + f, 2 * i + 2 - f)]
            for order in permutations(range(m))
            for flips in product((0, 1), repeat=m)
        ]
        seen: set[tuple[int, ...]] = set()
        for images in permutations(darts):
            if images in seen:
                continue
            out.append(CombinatorialMap(dict(zip(darts, images)), alpha))
            for psi in relabelings:
                conj = [0] * (2 * m)
                for d, image in zip(darts, images):
                    conj[psi[d] - 1] = psi[image]
                seen.add(tuple(conj))
    return out


def random_maps(
    count: int, max_edges: int, seed: int, min_edges: int = 1
) -> list[CombinatorialMap]:
    """Seeded random maps with edge counts uniform in [min_edges, max_edges]."""
    if min_edges > max_edges:
        raise SurfPolyError(f"min_edges {min_edges} exceeds max_edges {max_edges}")
    rng = random.Random(seed)
    return [random_map(rng.randint(min_edges, max_edges), rng) for _ in range(count)]


def random_maps_of_genus(
    count: int,
    genus: int,
    max_edges: int,
    seed: int,
    min_edges: int = 1,
) -> list[CombinatorialMap]:
    """Seeded random maps of a prescribed total genus.

    Rejection sampling: each candidate is drawn as :func:`random_maps`
    draws a map, with its edge count uniform in [max(min_edges, 2 * genus),
    max_edges], its genus is counted on the rotation list, and only a kept
    candidate is built into a map, whose own genus is checked again.
    """
    if genus < 0:
        raise SurfPolyError(f"genus must be at least 0, not {genus}")
    least = max(min_edges, 2 * genus)
    if least > max_edges:
        raise SurfPolyError(
            f"a genus-{genus} map of at least {min_edges} edges has at least {least}, "
            f"more than max_edges {max_edges}"
        )
    rng = random.Random(seed)
    out: list[CombinatorialMap] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100000 * count:
            raise RuntimeError(f"cannot sample genus {genus} with <= {max_edges} edges")
        images = random_rotation(rng.randint(least, max_edges), rng)
        if rotation_has_genus(images, genus):
            m = rotation_map(images)
            if m.total_genus != genus:
                raise InternalInvariantError(
                    f"rotation counted as genus {genus} builds a map of genus {m.total_genus}"
                )
            out.append(m)
    return out


def alternating_diagrams(
    count: int, genus: int, max_crossings: int, seed: int, min_crossings: int = 2
) -> list[LinkDiagram]:
    """Alternating diagrams on a genus-``genus`` surface, generated as the
    medial diagrams of random maps of that genus (so every diagram comes
    with a known Tait graph)."""
    maps = random_maps_of_genus(
        count, genus, max_crossings, seed, min_edges=min_crossings
    )
    return [medial_diagram(m) for m in maps]
