import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfpoly.errors import NonLaurentResult
from surfpoly.laurent import LaurentPolynomial as L


def v(name):
    return L.variable(name)


def test_arith_examples():
    X, Y, A, B = v("X"), v("Y"), v("A"), v("B")
    assert (1 + X) * (1 + X) == 1 + 2 * X + X ** 2
    assert (Y + Y ** -1) * Y == Y ** 2 + 1
    assert (A + B) + (-B) == A


def test_ring_axioms_random():
    rng = random.Random(0)
    names = ["X", "Y", "A"]

    def rand_poly():
        p = L.zero()
        for _ in range(rng.randint(0, 4)):
            exps = {n: rng.randint(-3, 3) for n in rng.sample(names, rng.randint(0, 3))}
            p = p + L.monomial(rng.randint(-5, 5), exps)
        return p

    for _ in range(60):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + L.zero() == p
        assert p * L.constant(1) == p
        assert p - p == L.zero()


def test_substitute_examples():
    X, Y, A, B = v("X"), v("Y"), v("A"), v("B")
    p = 2 + A + B
    assert p.substitute({"A": Y, "B": Y ** -1}) == 2 + Y + Y ** -1
    assert (1 + X).substitute({"X": X - 1}) == X
    d = v("d")
    assert (A * A).substitute({"A": B * d * A ** -1}) == L.monomial(
        1, {"B": 2, "d": 2, "A": -2}
    )


def test_substitute_identity_and_distributivity():
    rng = random.Random(1)
    X, Y = v("X"), v("Y")
    for _ in range(20):
        terms = {
            (rng.randint(0, 3), rng.randint(-2, 2)): rng.randint(-4, 4)
            for _ in range(4)
        }
        p = L(("X", "Y"), terms)
        q = L(("X", "Y"), {(1, 0): 2, (0, 1): -1})
        assert p.substitute({"X": X, "Y": Y}) == p
        bindings = {"Y": X * X}  # Y occurs with negative exponents sometimes
        try:
            lhs = (p + q).substitute(bindings)
        except NonLaurentResult:
            continue
        assert lhs == p.substitute(bindings) + q.substitute(bindings)


def test_substitute_rejects_non_laurent():
    X, Y = v("X"), v("Y")
    with pytest.raises(NonLaurentResult):
        (X ** -1 + X).substitute({"X": 1 + Y})
    with pytest.raises(NonLaurentResult):
        (X ** -1).substitute({"X": 2 * Y})  # coefficient 2 is not invertible
    # monomial bindings are fine at any exponent
    assert (X ** -2).substitute({"X": Y ** 3}) == Y ** -6


def test_unbound_variables_pass_through():
    X, Y = v("X"), v("Y")
    assert (X + Y).substitute({"X": 1}) == 1 + Y


def test_canonical_strings():
    X, Y, A, B = v("X"), v("Y"), v("A"), v("B")
    assert str(L.constant(2) + A + B) == "2 + A + B"
    assert str(L.zero()) == "0"
    assert str(Y ** -1 + Y) == "Y^-1 + Y"
    assert str(-X + 1) == "1 - X"
    assert str(L.monomial(-1, {"X": 2})) == "-X^2"
    assert str(3 * A * B ** 2) == "3*A*B^2"
    # ties in total degree fall back to descending exponent vectors
    C = v("C")
    tied = (
        -A ** -1 + 3 * A * B ** -1 + 1 - B ** -1 * C + A ** 2 * B ** -1
        + A - 2 * B + C + B ** -1 * C ** 2 + A ** -1 * B * C
    )
    assert str(tied) == (
        "-A^-1 + 3*A*B^-1 + 1 - B^-1*C + A^2*B^-1 + A - 2*B + C + B^-1*C^2 + A^-1*B*C"
    )
    # equality of polynomials iff equality of strings
    p = (1 + X) * (1 + Y)
    q = 1 + X + Y + X * Y
    assert str(p) == str(q) and p == q


def _reference_canonical_string(p):
    """The canonical string before the one-pass rewrite: one sort on a key
    lambda, then each term appended with ``+=``."""
    if not p.terms:
        return "0"
    keyed = sorted(p.terms.items(), key=lambda item: (-sum(item[0]), item[0]), reverse=True)
    pieces = []
    for exps, c in keyed:
        factors = []
        for name, e in zip(p.variables, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append((c < 0, body))
    first_neg, first = pieces[0]
    out = ("-" if first_neg else "") + first
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.lists(st.sampled_from("ABXYZd"), unique=True, max_size=4).flatmap(
        lambda names: st.tuples(
            st.just(tuple(names)),
            st.dictionaries(
                st.tuples(*(st.integers(-3, 3) for _ in names)),
                st.sampled_from([1, -1, 1, -1, 2, -3, 12]),
                max_size=12,
            ),
        )
    )
)
def test_canonical_string_matches_reference(case):
    # zero, constants, +-1 coefficients, negative leading terms and
    # negative exponents all occur among the draws and the fixed cases
    names, terms = case
    p = L(names, terms)
    assert str(p) == _reference_canonical_string(p)
    for q in (L.zero(), L.constant(-5), L.constant(1), -p, p * v("A") ** -2 - 1):
        assert str(q) == _reference_canonical_string(q)


def test_rename_swap():
    X, Y, A, B = v("X"), v("Y"), v("A"), v("B")
    p = X + 2 * Y + A * B ** 2
    swapped = p.rename({"X": "Y", "Y": "X", "A": "B", "B": "A"})
    assert swapped == Y + 2 * X + B * A ** 2


def test_pow_negative_monomial():
    X = v("X")
    assert (2 * X) ** 0 == 1
    assert (-X) ** -2 == X ** -2
    with pytest.raises(NonLaurentResult):
        (1 + X) ** -1


def test_pow_multiplies_only_what_it_keeps(monkeypatch):
    X, Y = v("X"), v("Y")
    p = 1 + X + Y ** -1
    expected = {1: p, 2: p * p, 5: p * p * p * p * p, 8: (p * p * p * p) * (p * p * p * p)}
    real = L.__mul__
    calls = []
    monkeypatch.setattr(L, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    for k, muls in ((1, 0), (2, 1), (5, 3), (8, 3)):
        calls.clear()
        assert p ** k == expected[k]
        assert len(calls) == muls, k


def test_variables_dropped_when_unused():
    X, Y = v("X"), v("Y")
    p = X + Y - Y
    assert p.variables == ("X",)
    assert p == X


# -- substitute against the term-by-term expansion ------------------------------

NAMES = ("X", "Y", "Z")


def _reference_substitute(p, bindings):
    """Expand term by term with ``*`` and ``+`` (the algorithm ``substitute``
    replaced); ``**`` raises NonLaurentResult for an illegal inverse."""
    total = L.zero()
    for exps, c in p.terms.items():
        factor = L.constant(c)
        for name, k in zip(p.variables, exps):
            b = bindings.get(name, v(name))
            factor = factor * (L.constant(b) if isinstance(b, int) else b) ** k
        total = total + factor
    return total


@st.composite
def polys_and_bindings(draw):
    """A 3-variable polynomial and bindings of three kinds: integers,
    +-1-coefficient monomials, and binomials with coefficients up to +-2,
    the last only on variables that occur with nonnegative exponents."""
    # a variable's exponents lie in [-8, 8] or, so that binomials are drawn
    # often, in [0, 8]: substitute builds powers 2 to 8 from the ones below
    exponents = st.tuples(*(st.integers(draw(st.sampled_from([-8, 0])), 8) for _ in NAMES))
    terms = draw(st.dictionaries(exponents, st.integers(-5, 5), max_size=6))
    p = L(NAMES, terms)

    def monomial(coeffs):
        exps = st.dictionaries(st.sampled_from(NAMES + ("t",)), st.integers(-2, 2), max_size=2)
        return L.monomial(draw(st.sampled_from(coeffs)), draw(exps))

    bindings = {}
    for name in sorted(draw(st.sets(st.sampled_from(NAMES), min_size=1))):
        i = p.variables.index(name) if name in p.variables else None
        nonnegative = i is None or all(e[i] >= 0 for e in p.terms)
        kinds = ["int", "monomial", "binomial", "binomial"] if nonnegative else ["int", "monomial"]
        kind = draw(st.sampled_from(kinds))
        if kind == "int":
            bindings[name] = draw(st.integers(-2, 2))
        elif kind == "monomial":
            bindings[name] = monomial([1, -1])
        else:
            bindings[name] = monomial([1, -1, 2, -2]) + monomial([1, -1, 2, -2])
    return p, bindings


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(polys_and_bindings())
def test_substitute_matches_term_by_term_reference(case):
    p, bindings = case
    try:
        expected = _reference_substitute(p, bindings)
    except NonLaurentResult:
        with pytest.raises(NonLaurentResult):
            p.substitute(bindings)
        return
    got = p.substitute(bindings)
    assert got == expected
    assert got.to_canonical_string() == expected.to_canonical_string()


MONO_NAMES = ("A", "B", "q", "X")


@st.composite
def polys_and_monomial_bindings(draw):
    """A polynomial over A, B, q, X with exponents in [-4, 4], and bindings
    that are mostly monomials: the swap A -> B/q, B -> A q, monomials with
    coefficients 1, -1, 2 or -3, the constants 0, 1, -1 and 2, and now and
    then a binomial on a variable with nonnegative exponents."""
    exponents = st.tuples(*(st.integers(draw(st.sampled_from([-4, 0])), 4) for _ in MONO_NAMES))
    terms = draw(st.dictionaries(exponents, st.integers(-5, 5), max_size=6))
    p = L(MONO_NAMES, terms)

    def monomial(coeffs):
        exps = st.dictionaries(st.sampled_from(MONO_NAMES + ("t",)), st.integers(-3, 3), max_size=3)
        return L.monomial(draw(st.sampled_from(coeffs)), draw(exps))

    bindings = {}
    if draw(st.booleans()):
        bindings = {"A": v("B") * v("q") ** -1, "B": v("A") * v("q")}
    for name in sorted(draw(st.sets(st.sampled_from(MONO_NAMES), min_size=1)) - set(bindings)):
        nonnegative = name not in p.variables or all(
            e[p.variables.index(name)] >= 0 for e in p.terms
        )
        kind = draw(st.sampled_from(["constant", "unit", "unit", "other", "binomial"]))
        if kind == "constant":
            bindings[name] = draw(st.sampled_from([0, 1, -1, 2]))
        elif kind == "unit":
            bindings[name] = monomial([1, -1])
        elif kind == "other" or not nonnegative:
            bindings[name] = monomial([2, -3])
        else:
            bindings[name] = monomial([1, -1, 2]) + monomial([1, -1, -3])
    return p, bindings


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(polys_and_monomial_bindings())
def test_monomial_bindings_match_term_by_term_reference(case):
    p, bindings = case
    try:
        expected = _reference_substitute(p, bindings)
    except NonLaurentResult:
        # the first binding, in the caller's order, that inverts something
        # other than a +-1 monomial names the variable
        culprit = next(
            name for name, b in bindings.items()
            if name in p.variables
            and any(e[p.variables.index(name)] < 0 for e in p.terms)
            and not (isinstance(b, L) and b.is_monomial() and abs(*b.terms.values()) == 1)
            and b not in (1, -1)
        )
        with pytest.raises(NonLaurentResult) as info:
            p.substitute(bindings)
        assert str(info.value) == (
            f"binding for {culprit} must be an invertible monomial "
            f"(it appears with negative exponents)"
        )
        return
    got = p.substitute(bindings)
    assert got == expected
    assert got.to_canonical_string() == expected.to_canonical_string()


def test_product_expands_only_the_side_with_fewer_variables(monkeypatch):
    import surfpoly.laurent as laurent

    X, Y, Z = v("X"), v("Y"), v("Z")
    poly = (1 + X + Y * Z ** -1) * (X - Z)
    mono = L.monomial(-2, {"X": 1, "Z": -3})
    real = laurent._expand
    expanded = []
    monkeypatch.setattr(laurent, "_expand", lambda p, names: expanded.append(p) or real(p, names))
    expected = L(("X", "Y", "Z"), {
        tuple(map(sum, zip(e, (1, 0, -3)))): -2 * c for e, c in poly.terms.items()
    })
    for left, right in ((mono, poly), (poly, mono)):
        expanded.clear()
        assert left * right == expected
        assert expanded == [mono]
    expanded.clear()
    assert (poly + poly * poly) * poly == poly * poly + poly * poly * poly
    assert expanded == []


# -- _normalize against the multi-pass version it replaced ---------------------


def _reference_normalize(variables, terms):
    """The normalization before the one-pass rewrite: filter, re-key through
    the used columns in name order, merge, and filter again."""
    terms = {e: c for e, c in terms.items() if c}
    for e in terms:
        if len(e) != len(variables):
            raise ValueError("exponent vector length does not match variables")
    used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
    names = [variables[i] for i in used]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {variables}")
    order = sorted(range(len(used)), key=lambda j: names[j])
    out_vars = tuple(names[j] for j in order)
    out_terms = {}
    for e, c in terms.items():
        key = tuple(e[used[j]] for j in order)
        out_terms[key] = out_terms.get(key, 0) + c
    return out_vars, {e: c for e, c in out_terms.items() if c}


@st.composite
def raw_polynomials(draw):
    """Constructor input: unsorted names, possibly repeated, some columns
    forced to zero (so a repeated name may be unused), zero coefficients and
    exponent vectors one entry too short or too long."""
    names = tuple(draw(st.lists(st.sampled_from("ABXYZd"), max_size=5)))
    n = len(names)
    unused = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    exponent = st.tuples(
        *(st.just(0) if i in unused else st.integers(-2, 2) for i in range(n))
    )
    coeff = st.sampled_from([0, 0, 1, -1, 3])
    terms = draw(st.dictionaries(exponent, coeff, max_size=6))
    for length in draw(st.lists(st.sampled_from([n - 1, n + 1]), max_size=2)):
        if length >= 0:
            key = tuple(draw(st.integers(-2, 2)) for _ in range(length))
            terms[key] = draw(st.sampled_from([0, 0, 0, 2]))
    return names, terms


def _assert_same_normalization(got, expected):
    assert got.variables == expected[0]
    # same terms in the same order, since callers iterate them
    assert list(got.terms.items()) == list(expected[1].items())


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(raw_polynomials())
def test_normalize_matches_reference(case):
    names, terms = case
    try:
        expected = _reference_normalize(names, terms)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            L(names, terms)
        assert str(info.value) == str(exc)
        return
    p = L(names, terms)
    _assert_same_normalization(p, expected)
    terms.clear()  # the polynomial keeps its own copy of the caller's terms
    assert p.terms == expected[1]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    st.dictionaries(st.sampled_from("ZYXdBA"), st.integers(-2, 2), max_size=5),
    st.sampled_from([1, -1, 0, 4]),
)
def test_monomial_with_unsorted_keys(exponents, coeff):
    names = tuple(sorted(exponents))
    expected = _reference_normalize(names, {tuple(exponents[n] for n in names): coeff})
    _assert_same_normalization(L.monomial(coeff, exponents), expected)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    st.dictionaries(st.tuples(*(st.integers(-2, 2) for _ in NAMES)), st.integers(-3, 3), max_size=5),
    st.permutations("ZYXWBA"),
)
def test_rename_onto_unsorted_names(terms, targets):
    p = L(NAMES, terms)
    mapping = dict(zip(NAMES, targets))
    expected = _reference_normalize(tuple(mapping[v] for v in p.variables), p.terms)
    _assert_same_normalization(p.rename(mapping), expected)
