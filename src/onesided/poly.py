"""Polynomial representations over the Boolean cube.

Polynomial types:

* :class:`UniPoly` — univariate polynomials with exact rational coefficients
  (Chebyshev generation, affine composition, products).
* :class:`SparsePolynomial` — multilinear monomial-coefficient maps over
  {-1,+1}^n; multiplication reduces via x_i^2 = 1, so a monomial product is
  the symmetric difference of index sets.
* Structured polynomials (:data:`StructuredPolynomial`): a
  :class:`SparsePolynomial` itself, an :class:`AffineForm` outer(w0 + w.x),
  or a :class:`SumForm` of structured parts.  Constructions, learned
  hypotheses and LP-oracle witnesses are all of this type, so each can be
  certified, expanded or stored as it is; the JSON tag of the sparse form
  is ``"sparse"``.

Exact cube values (in ``cube_matrix`` row order) have one format: integer
numerators in a numpy object array over one common denominator
(:func:`cube_numerators`).  Values and multilinear coefficients convert
through one exact Walsh-Hadamard transform of such numerators, O(n 2^n).
Variable j is bit ``1 << (n - j)`` of a monomial's mask, so values =
walsh(coefficients by mask) reversed, and coefficients = walsh(values
reversed) / 2^n.

Construction-time arithmetic is exact rational; floating point appears only
when a caller asks for a float evaluation or when coefficients were produced
by a floating-point LP solve.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

import numpy as np

from .cube import BoolFunc, as_bits, cube_matrix, linear_form, target_values
from .errors import DimensionError, InputError, ResourceLimitError

Coef = Union[Fraction, float]

#: Cap on the variable count of a multilinear expansion.
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
                clean[key] = clean[key] + c if key in clean else c
        clean = {k: v for k, v in clean.items() if v != 0}
        object.__setattr__(self, "terms", clean)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

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


def from_lp_solution(n: int, monos: Sequence[Monomial], values: np.ndarray) -> SparsePolynomial:
    """The polynomial with float coefficient values[j] on monos[j], as an LP solve returns
    them; coefficients of magnitude at most 1e-12 are solver noise and are dropped."""
    return SparsePolynomial(n, {mono: float(c) for mono, c in zip(monos, values) if abs(c) > 1e-12})


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
    offset: Fraction

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


StructuredPolynomial = Union[SparsePolynomial, AffineForm, SumForm]


def eval_exact(p: StructuredPolynomial, x) -> Coef:
    """Evaluate a structured polynomial at one cube point, exactly when possible."""
    bits = as_bits(x, p.n)
    if isinstance(p, SparsePolynomial):
        return p.eval(bits)
    if isinstance(p, AffineForm):
        return p.outer(p.argument(bits))
    if isinstance(p, SumForm):
        return sum((eval_exact(part, bits) for part in p.parts), start=p.offset)
    raise TypeError(f"not a structured polynomial: {p!r}")


def eval_on_cube(p: StructuredPolynomial) -> list[Coef]:
    """Exact values of p at every point of the cube, in lexicographic order (see :func:`cube_numerators`)."""
    nums, denom = cube_numerators(p)
    return [Fraction(v, denom) for v in nums.tolist()]


def cube_numerators(p: StructuredPolynomial) -> tuple[np.ndarray, int]:
    """(nums, D): the exact values of p on the cube are nums / D, with nums an object array of
    Python ints in ``cube_matrix`` row order and D > 0 one common denominator.

    Affine forms are evaluated once per distinct value of the integer linear
    form, which keeps full-cube certification cheap even at n around 20.
    Sparse forms take one exact Walsh-Hadamard transform of their coefficients
    by mask; float coefficients enter as their exact Fraction.  Sum forms add
    their parts' numerators over the lcm of their denominators.
    """
    if isinstance(p, AffineForm):
        ts, inverse = np.unique(linear_form(cube_matrix(p.n), p.w0, p.w), return_inverse=True)
        table, denom = _over_common_denominator([p.outer(int(t)) for t in ts])
        return table[inverse], denom
    if isinstance(p, SparsePolynomial):
        by_mask = [0] * 2**p.n
        for mono, coef in p.terms.items():
            by_mask[sum(1 << (p.n - j) for j in mono)] = Fraction(coef)
        nums, denom = _over_common_denominator(by_mask)
        return _walsh(nums)[::-1], denom
    if isinstance(p, SumForm):
        parts = [cube_numerators(part) for part in p.parts] + [p.offset.as_integer_ratio()]
        denom = math.lcm(*(d for _, d in parts))
        return sum(nums * (denom // d) for nums, d in parts), denom
    raise TypeError(f"not a structured polynomial: {p!r}")


def negate_onesided(p: StructuredPolynomial) -> StructuredPolynomial:
    """The reflection x -> -p(-x), staying in the structured grammar.

    Turns a positive one-sided approximation of f into a negative one-sided
    approximation of the reflected target x -> -f(-x).
    """
    if isinstance(p, SparsePolynomial):
        return SparsePolynomial(p.n, {mono: (coef if len(mono) % 2 else -coef) for mono, coef in p.terms.items()})
    if isinstance(p, AffineForm):
        outer = UniPoly(tuple(-c for c in p.outer.coeffs))
        return AffineForm(outer, p.w0, tuple(-wi for wi in p.w))
    if isinstance(p, SumForm):
        return SumForm(tuple(negate_onesided(part) for part in p.parts), -p.offset)
    raise TypeError(f"not a structured polynomial: {p!r}")


def expand(p: StructuredPolynomial) -> SparsePolynomial:
    """Multilinear expansion of a structured form (x_i^2 = 1 applied).

    An affine form is one Walsh-Hadamard transform of its cube values, and
    those evaluate the outer polynomial only once per distinct value of the
    linear form, so ``EXPANSION_CAP`` bounds the variable count and not the
    outer degree.  A sparse polynomial is its own expansion.
    """
    if isinstance(p, SparsePolynomial):
        return p
    if isinstance(p, AffineForm):
        if p.n > EXPANSION_CAP:
            raise ResourceLimitError(f"expansion cap: {p.n} variables > cap {EXPANSION_CAP}")
        return _from_cube_numerators(p.n, *cube_numerators(p))
    if isinstance(p, SumForm):
        acc = sparse_constant(p.n, p.offset)
        for part in p.parts:
            acc = acc + expand(part)
        return acc
    raise TypeError(f"not a structured polynomial: {p!r}")


def weight_and_degree(p: StructuredPolynomial) -> tuple[Coef, int, bool]:
    """(weight, degree, exact) of a structured polynomial.

    Within the expansion cap the weight and degree of the expanded multilinear
    form are exact; beyond it, :func:`analytic_bounds` are returned.
    """
    try:
        q = expand(p)
        return q.weight, q.degree, True
    except ResourceLimitError:
        return analytic_bounds(p)


def analytic_bounds(p: StructuredPolynomial) -> tuple[Coef, int, bool]:
    """(weight, degree, exact) upper bounds read off the structure, without expanding."""
    if isinstance(p, SparsePolynomial):
        return p.weight, p.degree, True
    if isinstance(p, AffineForm):
        win = abs(p.w0) + sum(abs(wi) for wi in p.w)
        bound = sum((abs(c) * Fraction(win) ** j for j, c in enumerate(p.outer.coeffs)), start=Fraction(0))
        return bound, min(p.n, max(p.outer.degree, 0)), False
    if isinstance(p, SumForm):
        weights, degrees = [], []
        for part in p.parts:
            wgt, deg, _ = analytic_bounds(part)
            weights.append(wgt)
            degrees.append(deg)
        return sum(weights, start=abs(p.offset)), max(degrees), False
    raise TypeError(f"not a structured polynomial: {p!r}")


# ---------------------------------------------------------------------------
# Exact Walsh-Hadamard transform between cube values and coefficients


def _over_common_denominator(values) -> tuple[np.ndarray, int]:
    """(nums, D): ints or Fractions as numerators in an object array over D, the lcm of their denominators."""
    denom = math.lcm(*{v.denominator for v in values})
    return np.array([v.numerator * (denom // v.denominator) for v in values], dtype=object), denom


def _walsh(a: np.ndarray) -> np.ndarray:
    """t[y] = sum_m a[m] * (-1)^popcount(y & m) for a C-contiguous object array of 2^n ints;
    the butterflies run in place on a, which is returned."""
    h = 1
    while h < a.size:
        low, high = a.reshape(-1, 2, h).swapaxes(0, 1)  # views, since a is C-contiguous
        low[...], high[...] = low + high, low - high
        h *= 2
    return a


def interpolate(n: int, values: Sequence) -> SparsePolynomial:
    """The unique multilinear polynomial taking ``values`` on the cube, exactly:
    one int or Fraction per ``cube_matrix`` row, in row order."""
    if len(values) != 2**n:
        raise DimensionError(f"interpolation on n={n} needs {2**n} values, got {len(values)}")
    if not all(isinstance(v, (int, Fraction)) for v in values):
        raise InputError("interpolation needs exact values: Python ints or Fractions")
    return _from_cube_numerators(n, *_over_common_denominator(values))


def _from_cube_numerators(n: int, nums: np.ndarray, denom: int) -> SparsePolynomial:
    """The multilinear polynomial whose cube values are nums / denom, in ``cube_matrix`` row order."""
    coeffs = _walsh(nums[::-1].copy())
    terms = {}
    for mask in np.flatnonzero(coeffs).tolist():
        terms[tuple(j for j in range(1, n + 1) if mask >> (n - j) & 1)] = Fraction(coeffs[mask], denom << n)
    return SparsePolynomial(n, terms)


def exact_multilinear(f: BoolFunc, n: int) -> SparsePolynomial:
    """The unique multilinear polynomial agreeing with f on the whole cube.

    Coefficients are exact rationals, one :func:`interpolate` of the target's
    +-1 values; the cap is n = 16.
    """
    if n > 16:
        raise ResourceLimitError(f"exact interpolation enumerates 2^{n} points; cap is 2^16")
    return interpolate(n, target_values(f, cube_matrix(n)).tolist())


# ---------------------------------------------------------------------------
# JSON serialization


def _coef_to_str(c: Coef) -> str:
    return str(c) if isinstance(c, Fraction) else repr(float(c))


def _coef_from_str(s: str) -> Coef:
    """Inverse of :func:`_coef_to_str`: an int or fraction string is an exact Fraction, and a float
    repr (any other string) is that float, so a float coefficient reads back as the same value."""
    return Fraction(s) if re.fullmatch(r"[+-]?\d+(/\d+)?", s) else float(s)


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
    if isinstance(p, SparsePolynomial):
        return {"form": "sparse", **sparse_to_json(p)}
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
    form = obj.get("form", "sparse")  # sparse_to_json, as in a learned hypothesis, writes no tag
    if form == "sparse":
        return sparse_from_json(obj)
    if form == "affine":
        return AffineForm(UniPoly(tuple(Fraction(c) for c in obj["outer"])), int(obj["w0"]), tuple(int(v) for v in obj["w"]))
    if form == "sum":
        return SumForm(tuple(structured_from_json(part) for part in obj["parts"]), Fraction(obj["offset"]))
    raise InputError(f"unknown structured polynomial form {form!r}")
