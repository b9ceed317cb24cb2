"""Sparse exact multivariate Laurent polynomials over Python integers.

The carrier type for every polynomial in the package.  Terms are stored as
``{exponent tuple: coefficient}`` over an alphabetically sorted variable
tuple; variables that no term uses are dropped, so two polynomials are equal
iff their normalized data agree, iff their canonical strings agree.

Substitution is exact composition.  Bindings whose image would leave the
Laurent ring (inverting a non-monomial) raise :class:`NonLaurentResult`.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import repeat
from operator import add, itemgetter, mul
from typing import Collection, Iterable, Iterator, Mapping, Union

from .errors import NonLaurentResult

Coeffable = Union["LaurentPolynomial", int]


class LaurentPolynomial:
    __slots__ = ("_vars", "_terms", "_string")

    def __init__(
        self,
        variables: Iterable[str] = (),
        terms: Mapping[tuple[int, ...], int] | None = None,
    ):
        self._vars, self._terms = _normalize(tuple(variables), terms or {})
        self._string: str | None = None  # the canonical string, once built

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
        return LaurentPolynomial(names, _product(a.items(), b.items()))

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

        Free variables and monomial bindings c * prod w^x, constants
        included, act on lazy exponent columns, one per variable: a binding
        adds x times its variable's column to each w's and scales the
        coefficients by c^|k|, one term out per term in.  Any other binding
        expands term by term, each power built from the one below.
        """
        bound = {v: _coerce(p) for v, p in bindings.items() if v in self._vars}
        if not bound:
            return self
        free = {v: i for i, v in enumerate(self._vars) if v not in bound}
        names = tuple(sorted(set(free).union(*(b._vars for b in bound.values()))))

        def exps(i: int) -> Iterator[int]:
            return map(itemgetter(i), self._terms)

        # the columns that add up to each output column, and the coefficients
        parts = {v: [exps(free[v])] if v in free else [] for v in names}
        coeffs: Iterable[int] = self._terms.values()
        lifted = []
        for v, b in bound.items():
            i = self._vars.index(v)
            ks = set(exps(i)) - {0}
            if min(ks) < 0 and not (b.is_monomial() and abs(next(iter(b._terms.values()))) == 1):
                raise NonLaurentResult(
                    f"binding for {v} must be an invertible monomial "
                    f"(it appears with negative exponents)"
                )
            if b.is_monomial():
                (e, c), = b._terms.items()
                for w, x in zip(b._vars, e):
                    parts[w].append(exps(i) if x == 1 else map(mul, exps(i), repeat(x)))
                if c != 1:
                    coeffs = map(mul, coeffs, map(pow, repeat(c), map(abs, exps(i))))
                continue
            powers = [[], list(_expand(b, names).items())]
            for _ in range(2, max(ks) + 1):
                powers.append([(e, c) for e, c in _product(powers[-1], powers[1]).items() if c])
            lifted.append((i, powers))
        lifted.sort(key=itemgetter(0))  # column order, whatever the bindings' order
        columns = (reduce(partial(map, add), p) if p else repeat(0) for p in parts.values())
        keys = zip(*columns) if names else repeat(())
        total: dict[tuple[int, ...], int] = {}
        if not lifted:
            for key, c in zip(keys, coeffs):
                total[key] = total.get(key, 0) + c
            return LaurentPolynomial(names, total)
        for key, c, *ks in zip(keys, coeffs, *(exps(i) for i, _ in lifted)):
            products = [(key, c)]
            for k, (_, powers) in zip(ks, lifted):
                if k:
                    products = [
                        (tuple(map(add, e1, e2)), c1 * c2)
                        for e1, c1 in products
                        for e2, c2 in powers[k]
                    ]
            for e, coeff in products:
                total[e] = total.get(e, 0) + coeff
        return LaurentPolynomial(names, total)

    # -- output ----------------------------------------------------------------

    def to_canonical_string(self) -> str:
        """Deterministic text form: terms graded-lex by exponent vector over
        alphabetical variables; equality of polynomials iff string equality.
        A polynomial is immutable, so the string is built once and kept."""
        if self._string is None:
            self._string = self._canonical_string()
        return self._string

    def _canonical_string(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        # keys are distinct: ascending total degree, then descending exponents
        for exps in sorted(sorted(self._terms, reverse=True), key=sum):
            c = self._terms[exps]
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(self._vars, exps) if e]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            sign = (" - " if c < 0 else " + ") if pieces else ("-" if c < 0 else "")
            pieces.append(sign + "*".join(factors))
        return "".join(pieces)

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
    a: Collection[tuple[tuple[int, ...], int]], b: Collection[tuple[tuple[int, ...], int]]
) -> dict[tuple[int, ...], int]:
    """The product of two collections of (exponents, coeff) pairs over the
    same names, like terms merged; zero coefficients are left in."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _expand(p: LaurentPolynomial, names: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """Term dict of p re-indexed to ``names``, a superset of its variables."""
    idx = [p._vars.index(v) if v in p._vars else None for v in names]
    return {
        tuple(0 if i is None else e[i] for i in idx): c
        for e, c in p._terms.items()
    }
