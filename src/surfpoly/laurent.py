"""Sparse exact multivariate Laurent polynomials over Python integers.

The carrier type for every polynomial in the package.  Terms are stored as
``{exponent tuple: coefficient}`` over an alphabetically sorted variable
tuple; variables that no term uses are dropped, so two polynomials are equal
iff their normalized data agree, iff their canonical strings agree.

Substitution is exact composition.  Bindings whose image would leave the
Laurent ring (inverting a non-monomial) raise :class:`NonLaurentResult`.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import Iterable, Mapping, Union

from .errors import NonLaurentResult

Coeffable = Union["LaurentPolynomial", int]


class LaurentPolynomial:
    __slots__ = ("_vars", "_terms")

    def __init__(
        self,
        variables: Iterable[str] = (),
        terms: Mapping[tuple[int, ...], int] | None = None,
    ):
        self._vars, self._terms = _normalize(tuple(variables), terms or {})

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls((), {})

    @classmethod
    def constant(cls, c: int) -> "LaurentPolynomial":
        return cls((), {(): c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "LaurentPolynomial":
        return cls((name,), {(1,): 1})

    @classmethod
    def monomial(cls, coeff: int, exponents: Mapping[str, int]) -> "LaurentPolynomial":
        return cls(exponents, {tuple(exponents.values()): coeff})

    # -- predicates ----------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: Coeffable) -> "LaurentPolynomial":
        other = _coerce(other)
        names, a, b = _align(self, other)
        out = dict(a)
        for exps, c in b.items():
            out[exps] = out.get(exps, 0) + c
        return LaurentPolynomial(names, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self._vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Coeffable) -> "LaurentPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: Coeffable) -> "LaurentPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other: Coeffable) -> "LaurentPolynomial":
        other = _coerce(other)
        names, a, b = _align(self, other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPolynomial(names, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if k < 0:
            if not self.is_monomial():
                raise NonLaurentResult(f"cannot invert non-monomial {self}")
            (exps, c), = self._terms.items()
            if c not in (1, -1):
                raise NonLaurentResult(f"cannot invert coefficient {c}")
            inv = LaurentPolynomial(self._vars, {tuple(-e for e in exps): c})
            return inv ** (-k)
        if k <= 1:
            return self if k else LaurentPolynomial.constant(1)
        half = self ** (k >> 1)
        square = half * half
        return square * self if k & 1 else square

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial.constant(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._vars == other._vars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._vars, tuple(sorted(self._terms.items()))))

    # -- structure-changing operations ----------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "LaurentPolynomial":
        """Simultaneously rename variables (e.g. swap X and Y)."""
        new_names = [mapping.get(v, v) for v in self._vars]
        if len(set(new_names)) != len(new_names):
            raise ValueError("rename collapses distinct variables")
        return LaurentPolynomial(new_names, self._terms)

    def substitute(self, bindings: Mapping[str, Coeffable]) -> "LaurentPolynomial":
        """Exact simultaneous composition; unbound variables pass through.

        A non-monomial binding is only legal for a variable occurring with
        nonnegative exponents; monomial bindings (unit coefficient) are legal
        for any exponents.
        """
        bound = {v: _coerce(p) for v, p in bindings.items() if v in self._vars}
        if not bound:
            return self
        names = tuple(sorted(
            {v for v in self._vars if v not in bound}.union(*(b._vars for b in bound.values()))
        ))
        column = {v: j for j, v in enumerate(names)}
        # Free columns are copied by index.  A monomial binding, constants
        # included, maps a term to one term: add k times its sparse exponent
        # vector and multiply by c^|k|.  Only the other bindings keep every
        # power a term uses, each built from the one below by one product.
        free = [(i, column[v]) for i, v in enumerate(self._vars) if v not in bound]
        monomials, lifted = [], []
        for v, b in bound.items():
            i = self._vars.index(v)
            ks = {e[i] for e in self._terms} - {0}
            if min(ks) < 0:
                coeff_ok = b.is_monomial() and abs(next(iter(b._terms.values()))) == 1
                if not coeff_ok:
                    raise NonLaurentResult(
                        f"binding for {v} must be an invertible monomial "
                        f"(it appears with negative exponents)"
                    )
            if b.is_monomial():
                (e, c), = b._terms.items()
                monomials.append((i, [(column[w], x) for w, x in zip(b._vars, e)], c))
                continue
            powers = [[], list(_expand(b, names).items())]
            for _ in range(2, max(ks) + 1):
                powers.append(_product(powers[-1], powers[1]))
            lifted.append((i, powers))
        lifted.sort(key=itemgetter(0))  # column order, whatever the bindings' order
        total: dict[tuple[int, ...], int] = {}
        for exps, c in self._terms.items():
            key = [0] * len(names)
            for i, j in free:
                key[j] = exps[i]
            for i, sparse, bc in monomials:
                k = exps[i]
                if k:
                    for j, x in sparse:
                        key[j] += k * x
                    c *= bc ** abs(k)
            products = [(tuple(key), c)]
            for i, powers in lifted:
                if exps[i]:
                    products = [
                        (tuple(map(add, e1, e2)), c1 * c2)
                        for e1, c1 in products
                        for e2, c2 in powers[exps[i]]
                    ]
            for e, coeff in products:
                total[e] = total.get(e, 0) + coeff
        return LaurentPolynomial(names, total)

    # -- output ----------------------------------------------------------------

    def to_canonical_string(self) -> str:
        """Deterministic text form: terms graded-lex by exponent vector over
        alphabetical variables; equality of polynomials iff string equality."""
        if not self._terms:
            return "0"
        # keys are distinct: ascending total degree, then descending exponents
        keyed = sorted(
            self._terms.items(), key=lambda item: (-sum(item[0]), item[0]), reverse=True
        )
        pieces = []
        for exps, c in keyed:
            factors = []
            for v, e in zip(self._vars, exps):
                if e == 0:
                    continue
                factors.append(v if e == 1 else f"{v}^{e}")
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

    __str__ = to_canonical_string

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.to_canonical_string()!r})"


def _normalize(
    variables: tuple[str, ...], terms: Mapping[tuple[int, ...], int]
) -> tuple[tuple[str, ...], dict[tuple[int, ...], int]]:
    """Drop zero terms and unused variables and sort the rest by name, in
    the only copy of ``terms``.  No two keys merge, so no zero reappears: two
    distinct keys differ in a column one of them uses, and that column stays."""
    terms = {e: c for e, c in terms.items() if c}
    if any(len(e) != len(variables) for e in terms):
        raise ValueError("exponent vector length does not match variables")
    # column by column: zip(*terms) would hold one live iterator per term,
    # enough to push a garbage collection's survivors into the oldest
    # generation and trigger full collections mid-item
    used = sorted(
        (i for i in range(len(variables)) if any(map(itemgetter(i), terms))),
        key=variables.__getitem__,
    )
    names = tuple(variables[i] for i in used)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {variables}")
    if names == variables:
        return names, terms
    return names, {tuple(e[i] for i in used): c for e, c in terms.items()}


def _coerce(x: Coeffable) -> LaurentPolynomial:
    if isinstance(x, LaurentPolynomial):
        return x
    if isinstance(x, int):
        return LaurentPolynomial.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPolynomial")


def _align(a: LaurentPolynomial, b: LaurentPolynomial):
    """Common sorted variable tuple and both term dicts re-indexed to it."""
    if a._vars == b._vars:
        return a._vars, a._terms, b._terms
    names = tuple(sorted(set(a._vars) | set(b._vars)))
    return names, *(p._terms if p._vars == names else _expand(p, names) for p in (a, b))


def _product(
    a: list[tuple[tuple[int, ...], int]], b: list[tuple[tuple[int, ...], int]]
) -> list[tuple[tuple[int, ...], int]]:
    """The product of two (exponents, coeff) lists over the same names,
    like terms merged and zeros dropped."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return [(e, c) for e, c in out.items() if c]


def _expand(p: LaurentPolynomial, names: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """Term dict of p re-indexed to ``names``, a superset of its variables."""
    idx = [p._vars.index(v) if v in p._vars else None for v in names]
    return {
        tuple(0 if i is None else e[i] for i in idx): c
        for e, c in p._terms.items()
    }
