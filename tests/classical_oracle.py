"""Independent brute-force classical Kauffman bracket / Jones oracle, and
networkx's Tutte polynomial as a third Tutte route.

Deliberately shares no code with the package: parses .vlk text itself,
smooths crossings by rewriting endpoint pairings, counts loops by walking
the pairings, and does its polynomial arithmetic in sympy.  Only meaningful
for genus-0 (classical) diagrams, where the bracket has no homology term.

Conventions shared with the package by definition (not by code): the
type-(1)/A smoothing joins each over dart to its rotation successor, and a
crossing is positive when the over strand exits along the rotation
successor of the under-strand exit.
"""

from __future__ import annotations

import re

import sympy as sp

A = sp.Symbol("A")
t = sp.Symbol("t")

_CROSSING_RE = re.compile(
    r"^crossing\s+(\d+)\s*:\s*darts\s*\(([^()]*)\)\s*over\s*\(([^()]*)\)$",
    re.IGNORECASE,
)
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_vlk(text: str):
    """Returns (crossings, alpha, orient): crossings is a list of
    (rotation 4-tuple, over pair), alpha a dart pairing dict."""
    crossings = []
    alpha = {}
    orient = []
    free_loops = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _CROSSING_RE.match(line)
        if m:
            rot = tuple(int(x) for x in m.group(2).split())
            over = tuple(int(x) for x in m.group(3).split())
            crossings.append((rot, over))
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key == "alpha":
            for body in _CYCLE_RE.findall(value):
                a, b = (int(x) for x in body.split())
                alpha[a] = b
                alpha[b] = a
        elif key == "orient":
            orient = [int(x) for x in value.split()]
        elif key == "freeloop":
            assert not value.split(), "oracle only handles trivial free loops"
            free_loops += 1
        else:
            raise AssertionError(f"oracle cannot read line {line!r}")
    return crossings, alpha, orient, free_loops


def _loops_of_state(crossings, alpha, state_bits):
    """Number of closed curves after smoothing each crossing."""
    pairing = {}
    for (rot, over), bit in zip(crossings, state_bits):
        succ = {rot[i]: rot[(i + 1) % 4] for i in range(4)}
        o1, o2 = over
        if bit:  # type (1) = A: over dart joins its successor
            pairs = [(o1, succ[o1]), (o2, succ[o2])]
        else:
            pairs = [(o1, succ[o2]), (o2, succ[o1])]
        for x, y in pairs:
            pairing[x] = y
            pairing[y] = x
    darts = set(pairing)
    directed = 0
    while darts:
        directed += 1
        start = next(iter(darts))
        d = start
        while True:
            darts.discard(d)
            d = pairing[alpha[d]]
            if d == start:
                break
    # each closed curve is traced by exactly two directed cycles (the two
    # traversal directions use disjoint dart sets)
    assert directed % 2 == 0
    return directed // 2


def bracket(text: str) -> sp.Expr:
    """Classical Kauffman bracket in A (B = 1/A, d = -A^2 - A^-2),
    normalized so the unknot gives 1."""
    crossings, alpha, _, free_loops = parse_vlk(text)
    n = len(crossings)
    d = -(A ** 2) - A ** -2
    total = sp.Integer(0)
    for mask in range(1 << n):
        bits = [bool(mask >> i & 1) for i in range(n)]
        a_cnt = sum(bits)
        loops = _loops_of_state(crossings, alpha, bits) + free_loops
        total += A ** (a_cnt - (n - a_cnt)) * d ** (loops - 1)
    return sp.expand(total)


def writhe(text: str) -> int:
    crossings, alpha, orient, _ = parse_vlk(text)
    succ = {}
    opposite = {}
    for rot, _over in crossings:
        for i in range(4):
            succ[rot[i]] = rot[(i + 1) % 4]
            opposite[rot[i]] = rot[(i + 2) % 4]
    out = set()
    for lead in orient:
        d = lead
        while d not in out:
            out.add(d)
            d = opposite[alpha[d]]
    w = 0
    for rot, over in crossings:
        o1, o2 = over
        u1, u2 = succ[o1], succ[o2]
        o_out = o1 if o1 in out else o2
        u_out = u1 if u1 in out else u2
        w += 1 if succ[u_out] == o_out else -1
    return w


def jones(text: str) -> sp.Expr:
    """Classical Jones polynomial in t (unknot -> 1), via
    (-A)^(-3w) <D> and A = t^(-1/4)."""
    w = writhe(text)
    v = (-A) ** (-3 * w) * bracket(text)
    v = sp.expand(v)
    return sp.expand(v.subs(A, t ** sp.Rational(-1, 4)))


def tutte(vertices, edges) -> sp.Expr:
    """Whitney-rank Tutte polynomial in X and Y: networkx's classical
    T(x, y) of the multigraph at x = X + 1, y = Y + 1.  networkx is not a
    test dependency, so callers skip first with
    ``pytest.importorskip("networkx")``."""
    import networkx as nx

    g = nx.MultiGraph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    x, y = sp.symbols("x y")
    X, Y = sp.symbols("X Y")
    return sp.expand(nx.tutte_polynomial(g).subs({x: X + 1, y: Y + 1}, simultaneous=True))
