"""Polynomial representations over the Boolean cube.

Three carriers:

* :class:`UniPoly` — univariate polynomials with exact rational coefficients
  (Chebyshev generation, affine composition, products).
* :class:`SparsePolynomial` — multilinear monomial-coefficient maps over
  {-1,+1}^n; multiplication reduces via x_i^2 = 1, so a monomial product is
  the symmetric difference of index sets.
* Structured forms (:class:`SparseForm`, :class:`AffineForm`,
  :class:`SumForm`) — the unexpanded carriers of constructed approximants.

Construction-time arithmetic is exact rational; floating point appears only
when a caller asks for a float evaluation or when coefficients were produced
by a floating-point LP solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

import numpy as np

from .cube import BoolFunc, as_bits, cube_matrix, target_values
from .errors import DimensionError, InputError, ResourceLimitError

Coef = Union[Fraction, float]

#: Default cap on variables/degree for multilinear expansion.
EXPANSION_CAP = 20


def _as_coef(v) -> Coef:
    if isinstance(v, (Fraction, int)):
        return Fraction(v)
    return float(v)


# ---------------------------------------------------------------------------
# Univariate polynomials


@dataclass(frozen=True)
class UniPoly:
    """coeffs[i] is the coefficient of t^i; trailing zeros are stripped."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, t) -> Coef:
        acc = Fraction(0) if isinstance(t, (Fraction, int)) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return UniPoly(tuple(ai + bi for ai, bi in itertools.zip_longest(a, b, fillvalue=Fraction(0))))

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (Fraction, int)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(tuple(out))

    __rmul__ = __mul__

    def shift(self, c) -> "UniPoly":
        """Add the constant c."""
        cs = list(self.coeffs) or [Fraction(0)]
        cs[0] += Fraction(c)
        return UniPoly(tuple(cs))

    def compose_affine(self, alpha, beta) -> "UniPoly":
        """The polynomial t -> self(alpha*t + beta), exactly."""
        alpha, beta = Fraction(alpha), Fraction(beta)
        inner = UniPoly((beta, alpha))
        acc = UniPoly((Fraction(0),))
        for c in reversed(self.coeffs):
            acc = acc * inner
            acc = acc.shift(c)
        return acc

    def pow(self, k: int) -> "UniPoly":
        acc = UniPoly((Fraction(1),))
        for _ in range(k):
            acc = acc * self
        return acc

    def max_abs_coeff(self) -> Fraction:
        return max((abs(c) for c in self.coeffs), default=Fraction(0))


@lru_cache(maxsize=256)
def chebyshev(d: int) -> UniPoly:
    """The degree-d Chebyshev polynomial of the first kind, exact coefficients.

    Recurrence: T_0 = 1, T_1 = t, T_{k+1} = 2t*T_k - T_{k-1}.
    """
    if d < 0:
        raise InputError("chebyshev degree must be nonnegative")
    if d == 0:
        return UniPoly((Fraction(1),))
    if d == 1:
        return UniPoly((Fraction(0), Fraction(1)))
    two_t = UniPoly((Fraction(0), Fraction(2)))
    prev, cur = chebyshev(0), chebyshev(1)
    for _ in range(d - 1):
        prev, cur = cur, two_t * cur + (Fraction(-1) * prev)
    return cur


# ---------------------------------------------------------------------------
# Sparse multilinear polynomials

Monomial = tuple[int, ...]  # sorted 1-based variable indices


@dataclass(frozen=True)
class SparsePolynomial:
    """Multilinear polynomial as a map from monomials to nonzero coefficients."""

    n: int
    terms: dict[Monomial, Coef]

    def __post_init__(self):
        clean: dict[Monomial, Coef] = {}
        for mono, coef in self.terms.items():
            key = tuple(sorted(mono))
            if len(set(key)) != len(key):
                raise InputError(f"monomial {mono} repeats a variable")
            if any(not 1 <= v <= self.n for v in key):
                raise InputError(f"monomial {mono} out of range for n={self.n}")
            c = _as_coef(coef)
            if c != 0:
                clean[key] = clean.get(key, Fraction(0) if isinstance(c, Fraction) else 0.0) + c
        clean = {k: v for k, v in clean.items() if v != 0}
        object.__setattr__(self, "terms", clean)

    @property
    def degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    @property
    def weight(self) -> Coef:
        return sum((abs(c) for c in self.terms.values()), start=Fraction(0))

    def eval(self, x) -> Coef:
        bits = as_bits(x, self.n)
        acc = Fraction(0)
        for mono, coef in self.terms.items():
            sign = 1
            for v in mono:
                sign = -sign if bits[v - 1] < 0 else sign
            acc = acc + (coef if sign > 0 else -coef)
        return acc

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if self.n != other.n:
            raise DimensionError("cannot add polynomials of different dimensions")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return SparsePolynomial(self.n, out)

    def scale(self, c) -> "SparsePolynomial":
        c = _as_coef(c)
        return SparsePolynomial(self.n, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        """Product with multilinear reduction (x_i^2 = 1)."""
        if self.n != other.n:
            raise DimensionError("cannot multiply polynomials of different dimensions")
        out: dict[frozenset, Coef] = {}
        for ka, va in self.terms.items():
            sa = frozenset(ka)
            for kb, vb in other.terms.items():
                key = sa.symmetric_difference(kb)
                out[key] = out.get(key, Fraction(0)) + va * vb
        return SparsePolynomial(self.n, {tuple(sorted(k)): v for k, v in out.items()})

    def substitute_literals(self, n_out: int, mapping: Sequence[int]) -> "SparsePolynomial":
        """Rename variable j to the signed literal mapping[j-1] of a larger space."""
        out: dict[Monomial, Coef] = {}
        for mono, coef in self.terms.items():
            sign = 1
            new = []
            for v in mono:
                lit = mapping[v - 1]
                if lit < 0:
                    sign = -sign
                new.append(abs(lit))
            if len(set(new)) != len(new):
                raise InputError("literal substitution must keep monomial variables distinct")
            key = tuple(sorted(new))
            out[key] = out.get(key, Fraction(0)) + (coef if sign > 0 else -coef)
        return SparsePolynomial(n_out, out)


def sparse_constant(n: int, c) -> SparsePolynomial:
    return SparsePolynomial(n, {(): _as_coef(c)})


def sparse_eval_batch(p: SparsePolynomial, X: np.ndarray) -> np.ndarray:
    """Float evaluation of a sparse polynomial on the rows of a +-1 matrix.

    Intended for learned polynomials with modest coefficients; constructions
    with huge exact coefficients should go through :func:`eval_exact`.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != p.n:
        raise DimensionError(f"matrix has wrong column count for n={p.n}")
    variables = np.ascontiguousarray(X.T)
    out, col, term = np.zeros(X.shape[0]), np.empty(X.shape[0]), np.empty(X.shape[0])
    for mono, coef in p.terms.items():
        # out += coef * prod_{v in mono} x_v, term by term and in the same order as a
        # fresh product per term, but in buffers reused across terms and without a
        # fancy-index copy of X per term
        col.fill(1.0)
        for v in mono:
            col *= variables[v - 1]
        np.multiply(col, float(coef), out=term)
        out += term
    return out


def monomials_upto(n: int, d: int) -> list[Monomial]:
    """All monomials of degree <= d over n variables, sorted by (size, lex)."""
    out: list[Monomial] = []
    for size in range(min(n, d) + 1):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


def characters(X: np.ndarray, monos: Sequence[Monomial]) -> np.ndarray:
    """The int8 +-1 matrix of monomial values: entry (i, j) is prod_{v in monos[j]} X[i, v-1]."""
    chi = np.ones((X.shape[0], len(monos)), dtype=np.int8)
    for j, mono in enumerate(monos):
        if mono:
            chi[:, j] = X[:, [v - 1 for v in mono]].prod(axis=1)
    return chi


# ---------------------------------------------------------------------------
# Structured forms


@dataclass(frozen=True)
class SparseForm:
    poly: SparsePolynomial

    @property
    def n(self) -> int:
        return self.poly.n


@dataclass(frozen=True)
class AffineForm:
    """outer(w0 + sum_i w_i x_i) with integer weights."""

    outer: UniPoly
    w0: int
    w: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.w)

    def argument(self, bits: Sequence[int]) -> int:
        return self.w0 + sum(wi * b for wi, b in zip(self.w, bits))


@dataclass(frozen=True)
class SumForm:
    parts: tuple["StructuredPolynomial", ...]
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        if not self.parts:
            raise InputError("sum form needs at least one part")
        dims = {part.n for part in self.parts}
        if len(dims) != 1:
            raise DimensionError(f"sum form parts disagree on dimension: {dims}")
        object.__setattr__(self, "offset", Fraction(self.offset))

    @property
    def n(self) -> int:
        return self.parts[0].n


StructuredPolynomial = Union[SparseForm, AffineForm, SumForm]


def eval_exact(p: StructuredPolynomial, x) -> Coef:
    """Evaluate a structured polynomial at one cube point, exactly when possible."""
    bits = as_bits(x, p.n)
    if isinstance(p, SparseForm):
        return p.poly.eval(bits)
    if isinstance(p, AffineForm):
        return p.outer(p.argument(bits))
    if isinstance(p, SumForm):
        return sum((eval_exact(part, bits) for part in p.parts), start=p.offset)
    raise TypeError(f"not a structured polynomial: {p!r}")


def eval(p: StructuredPolynomial, x) -> float:  # noqa: A001 - deliberate builtin shadow
    """Float evaluation of a structured polynomial at one cube point."""
    return float(eval_exact(p, x))


def eval_on_cube(p: StructuredPolynomial, n: int | None = None) -> list[Coef]:
    """Exact values of p at every point of the cube, in lexicographic order.

    Affine forms are evaluated once per distinct value of the integer linear
    form, which keeps full-cube certification cheap even at n around 20.
    """
    n = p.n if n is None else n
    if n != p.n:
        raise DimensionError(f"polynomial has n={p.n}, asked to enumerate n={n}")
    X = cube_matrix(n)
    return _values_on(p, X)


def _values_on(p: StructuredPolynomial, X: np.ndarray) -> list[Coef]:
    if isinstance(p, AffineForm):
        ts = (X.astype(np.int64) @ np.asarray(p.w, dtype=np.int64)) + p.w0
        cache = {int(t): p.outer(int(t)) for t in np.unique(ts)}
        return [cache[int(t)] for t in ts]
    if isinstance(p, SparseForm):
        vals: list[Coef] = []
        monos = list(p.poly.terms.items())
        if not monos:
            return [Fraction(0)] * X.shape[0]
        signs = characters(X, [mono for mono, _ in monos])
        for i in range(X.shape[0]):
            acc = Fraction(0)
            row = signs[i]
            for j, (_, coef) in enumerate(monos):
                acc = acc + (coef if row[j] > 0 else -coef)
            vals.append(acc)
        return vals
    if isinstance(p, SumForm):
        parts = [_values_on(part, X) for part in p.parts]
        return [sum(col, start=p.offset) for col in zip(*parts)]
    raise TypeError(f"not a structured polynomial: {p!r}")


def negate_onesided(p: StructuredPolynomial) -> StructuredPolynomial:
    """The reflection x -> -p(-x), staying in the structured grammar.

    Turns a positive one-sided approximation of f into a negative one-sided
    approximation of the reflected target x -> -f(-x).
    """
    if isinstance(p, SparseForm):
        terms = {mono: (coef if len(mono) % 2 else -coef) for mono, coef in p.poly.terms.items()}
        return SparseForm(SparsePolynomial(p.n, terms))
    if isinstance(p, AffineForm):
        outer = UniPoly(tuple(-c for c in p.outer.coeffs))
        return AffineForm(outer, p.w0, tuple(-wi for wi in p.w))
    if isinstance(p, SumForm):
        return SumForm(tuple(negate_onesided(part) for part in p.parts), -p.offset)
    raise TypeError(f"not a structured polynomial: {p!r}")


def expand(p: StructuredPolynomial, cap: int = EXPANSION_CAP) -> SparsePolynomial:
    """Multilinear expansion of a structured form (x_i^2 = 1 applied).

    Exponential in the worst case; refuses when the variable count or the
    outer degree exceeds ``cap``.
    """
    if isinstance(p, SparseForm):
        return p.poly
    if isinstance(p, AffineForm):
        if p.n > cap:
            raise ResourceLimitError(f"expansion cap: {p.n} variables > cap {cap}")
        if p.outer.degree > cap:
            raise ResourceLimitError(f"expansion cap: outer degree {p.outer.degree} > cap {cap}")
        linear = SparsePolynomial(p.n, {(): Fraction(p.w0), **{(j,): Fraction(wj) for j, wj in enumerate(p.w, start=1) if wj}})
        acc = sparse_constant(p.n, 0)
        for c in reversed(p.outer.coeffs):
            acc = acc * linear + sparse_constant(p.n, c)
        return acc
    if isinstance(p, SumForm):
        acc = sparse_constant(p.n, p.offset)
        for part in p.parts:
            acc = acc + expand(part, cap)
        return acc
    raise TypeError(f"not a structured polynomial: {p!r}")


def weight_and_degree(p: StructuredPolynomial, cap: int = EXPANSION_CAP) -> tuple[Coef, int, bool]:
    """(weight, degree, exact) of a structured polynomial.

    Within the expansion cap the weight and degree of the expanded multilinear
    form are exact; beyond it, the construction's analytic upper bounds are
    returned with ``exact=False``.
    """
    try:
        q = expand(p, cap)
        return q.weight, q.degree, True
    except ResourceLimitError:
        return _analytic_bounds(p)


def _analytic_bounds(p: StructuredPolynomial) -> tuple[Coef, int, bool]:
    if isinstance(p, SparseForm):
        return p.poly.weight, p.poly.degree, True
    if isinstance(p, AffineForm):
        win = abs(p.w0) + sum(abs(wi) for wi in p.w)
        bound = sum((abs(c) * Fraction(win) ** j for j, c in enumerate(p.outer.coeffs)), start=Fraction(0))
        return bound, min(p.n, max(p.outer.degree, 0)), False
    if isinstance(p, SumForm):
        weights, degrees = [], []
        for part in p.parts:
            wgt, deg, _ = _analytic_bounds(part)
            weights.append(wgt)
            degrees.append(deg)
        return sum(weights, start=abs(p.offset)), max(degrees), False
    raise TypeError(f"not a structured polynomial: {p!r}")


# ---------------------------------------------------------------------------
# Exact multilinear interpolation of Boolean functions


def exact_multilinear(f: BoolFunc, n: int) -> SparsePolynomial:
    """The unique multilinear polynomial agreeing with f on the whole cube.

    Coefficients are exact rationals, computed by character sums over the full
    cube; usable for n up to around 14.
    """
    if n > 16:
        raise ResourceLimitError(f"exact interpolation enumerates 2^{n} points; cap is 2^16")
    X = cube_matrix(n)
    values = target_values(f, X).astype(np.int64)
    terms: dict[Monomial, Coef] = {}
    denom = 2**n
    for mono in monomials_upto(n, n):
        chi = np.ones(X.shape[0], dtype=np.int64)
        for v in mono:
            chi *= X[:, v - 1]
        dot = int(chi @ values)
        if dot:
            terms[mono] = Fraction(dot, denom)
    return SparsePolynomial(n, terms)


# ---------------------------------------------------------------------------
# JSON serialization


def _coef_to_str(c: Coef) -> str:
    return str(c) if isinstance(c, Fraction) else repr(float(c))


def _coef_from_str(s: str) -> Coef:
    return Fraction(s)


def sparse_to_json(p: SparsePolynomial) -> dict:
    terms = [
        {"vars": list(mono), "coef": _coef_to_str(coef)}
        for mono, coef in sorted(p.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return {"n": p.n, "terms": terms}


def sparse_from_json(obj: Mapping) -> SparsePolynomial:
    terms = {tuple(t["vars"]): _coef_from_str(t["coef"]) for t in obj["terms"]}
    return SparsePolynomial(int(obj["n"]), terms)


def structured_to_json(p: StructuredPolynomial) -> dict:
    if isinstance(p, SparseForm):
        return {"form": "sparse", **sparse_to_json(p.poly)}
    if isinstance(p, AffineForm):
        return {
            "form": "affine",
            "outer": [_coef_to_str(c) for c in p.outer.coeffs],
            "w0": p.w0,
            "w": list(p.w),
        }
    if isinstance(p, SumForm):
        return {
            "form": "sum",
            "offset": _coef_to_str(p.offset),
            "parts": [structured_to_json(part) for part in p.parts],
        }
    raise TypeError(f"not a structured polynomial: {p!r}")


def structured_from_json(obj: Mapping) -> StructuredPolynomial:
    form = obj.get("form")
    if form == "sparse":
        return SparseForm(sparse_from_json(obj))
    if form == "affine":
        return AffineForm(UniPoly(tuple(Fraction(c) for c in obj["outer"])), int(obj["w0"]), tuple(int(v) for v in obj["w"]))
    if form == "sum":
        return SumForm(tuple(structured_from_json(part) for part in obj["parts"]), Fraction(obj["offset"]))
    raise InputError(f"unknown structured polynomial form {form!r}")
