"""Polynomial representations over the Boolean cube.

Polynomial types:

* :class:`UniPoly` — univariate polynomials with exact rational coefficients,
  held as integer numerators over one denominator (Chebyshev generation,
  affine composition, products); the outer polynomials of the constructions.
* :class:`SparsePolynomial` — multilinear monomial-coefficient maps over
  {-1,+1}^n; multiplication reduces via x_i^2 = 1, so a monomial product is
  the symmetric difference of index sets.
* Structured polynomials (:data:`StructuredPolynomial`): a
  :class:`SparsePolynomial` itself, an :class:`AffineForm` outer(w0 + w.x),
  or a :class:`SumForm` of structured parts.  Constructions, learned
  hypotheses and LP-oracle witnesses are all of this type, so each can be
  certified, expanded or stored as it is; the JSON tag of the sparse form
  is ``"sparse"``.

Exact values have one format: integer numerators over one common denominator.
A :class:`UniPoly` holds its coefficients so, as a tuple of Python ints over a
gcd-reduced positive denominator, and every operation on it runs on those
ints.  Exact cube values (in ``cube_matrix`` row order) are held so too
(:func:`cube_numerators`), in an int64 array when a bound proven up front in
Python ints rules out overflow (every magnitude an operation can form stays
below 2^62), and in an object array of Python ints otherwise.  The dtype
follows from the bound alone, and every consumer runs one code path over both.
Values and multilinear coefficients convert through one exact Walsh-Hadamard
transform of such numerators, O(m 2^m) over the m variables a form depends on:
a form is evaluated on its variable support and its values spread over the
rest of the cube.  Variable j is bit ``1 << (m - j)`` of a monomial's mask on a
support of m variables, so values = walsh(coefficients by mask) reversed, and
coefficients = walsh(values reversed) / 2^m.

An outer polynomial of an integer statistic of x (an :class:`AffineForm`, the
AND tradeoff) is evaluated once per distinct integer, and :func:`compose_counts`
is its kernel to a multilinear form; :func:`interpolate` is the validated entry
for exact values a caller supplies.

Construction-time arithmetic is exact rational; floating point appears only
when a caller asks for a float evaluation or when coefficients were produced
by a floating-point LP solve.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from .cube import (CUBE_CAP, BoolFunc, as_bits, cube_matrix, linear_form, store_integer_weights,
                   target_values)
from .errors import DimensionError, InputError, ResourceLimitError, json_field, json_int_list

Coef = Union[Fraction, float]

#: Cap on the variable count of a multilinear expansion.
EXPANSION_CAP = 20


def _as_coef(v) -> Coef:
    if isinstance(v, (Fraction, int)):
        return Fraction(v)
    return float(v)


# ---------------------------------------------------------------------------
# Univariate polynomials


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact scalar: a Fraction or an integral value."""
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    try:
        return operator.index(c), 1
    except TypeError:
        raise InputError(f"exact polynomials take ints and Fractions, got {type(c).__name__}") from None


def _horner(nums: Sequence[int], t: int) -> int:
    """sum_i nums[i] * t^i for an integer t, in Python ints."""
    acc = 0
    for c in reversed(nums):
        acc = acc * t + c
    return acc


@dataclass(frozen=True, init=False)
class UniPoly:
    """A univariate polynomial with exact rational coefficients, held as integer numerators over
    one common denominator: nums[i] / den is the coefficient of t^i.

    The form is canonical, so equality and hashing go by value: den > 0, trailing
    zero numerators are stripped (the zero polynomial is ``(), 1``) and
    gcd(den, *nums) = 1, which makes den the lcm of the reduced coefficient
    denominators.  Every operation runs on the numerators in Python ints and
    takes ints and Fractions as scalars; ``coeffs`` gives the coefficients as
    Fractions.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Sequence):
        """The polynomial with coefficient coeffs[i] of t^i, each an int or a Fraction."""
        ratios = [_ratio(c) for c in coeffs]
        den = math.lcm(*(d for _, d in ratios))
        self._set([n * (den // d) for n, d in ratios], den)

    @classmethod
    def _reduced(cls, nums: list[int], den: int) -> "UniPoly":
        """The polynomial nums / den, for den > 0, in canonical form."""
        p = object.__new__(cls)
        p._set(nums, den)
        return p

    def _set(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [n // g for n in nums], den // g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """coeffs[i] is the coefficient of t^i, as a reduced Fraction; () for the zero polynomial."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1  # -1 for the zero polynomial

    def __call__(self, t) -> Coef:
        """self(t): an exact Fraction for an integral or Fraction t, float Horner otherwise."""
        if isinstance(t, Fraction):
            p, q = t.numerator, t.denominator
            top = max(self.degree, 0)
            return Fraction(sum(n * p**i * q**(top - i) for i, n in enumerate(self.nums)), self.den * q**top)
        try:
            t = operator.index(t)
        except TypeError:
            acc = 0.0
            for n in reversed(self.nums):
                acc = acc * t + n / self.den
            return acc
        return Fraction(self.numerator_at(t), self.den)

    def numerator_at(self, t: int) -> int:
        """den * self(t) for an integer t: Horner on the numerators, in Python ints."""
        return _horner(self.nums, t)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            raise InputError(f"a polynomial adds only a UniPoly, got {type(other).__name__}")
        den = math.lcm(self.den, other.den)
        out = [0] * max(len(self.nums), len(other.nums))
        for p in (self, other):
            scale = den // p.den
            for i, n in enumerate(p.nums):
                out[i] += n * scale
        return UniPoly._reduced(out, den)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            out = [0] * (len(self.nums) + len(other.nums) - 1)  # all zeros when a factor is zero
            for i, x in enumerate(self.nums):
                if x:
                    for j, y in enumerate(other.nums, start=i):
                        out[j] += x * y
            return UniPoly._reduced(out, self.den * other.den)
        num, den = _ratio(other)
        return UniPoly._reduced([n * num for n in self.nums], self.den * den)

    __rmul__ = __mul__

    def __neg__(self) -> "UniPoly":
        return UniPoly._reduced([-n for n in self.nums], self.den)

    def shift(self, c) -> "UniPoly":
        """Add the constant c."""
        num, d = _ratio(c)
        den = math.lcm(self.den, d)
        out = [n * (den // self.den) for n in self.nums] or [0]
        out[0] += num * (den // d)
        return UniPoly._reduced(out, den)

    def compose_affine(self, alpha, beta) -> "UniPoly":
        """The polynomial t -> self(alpha*t + beta), exactly.

        With alpha*t + beta = (b + a*t) / q over integers, Horner runs on
        acc <- acc * (b + a*t) + nums[i] * q^(deg - i), and the result is acc
        over den * q^deg.
        """
        if not self.nums:
            return self
        (an, ad), (bn, bd) = _ratio(alpha), _ratio(beta)
        q = math.lcm(ad, bd)
        a, b = an * (q // ad), bn * (q // bd)
        acc, qk = [self.nums[-1]], 1
        for n in reversed(self.nums[:-1]):
            qk *= q
            nxt = [c * b for c in acc] + [0]
            for i, c in enumerate(acc, start=1):
                nxt[i] += c * a
            nxt[0] += n * qk
            acc = nxt
        return UniPoly._reduced(acc, self.den * qk)

    def pow(self, k: int) -> "UniPoly":
        if k < 0:
            raise InputError(f"a polynomial takes nonnegative integer powers, got {k}")
        acc = UniPoly((1,))
        for _ in range(k):
            acc = acc * self
        return acc

    def max_abs_coeff(self) -> Fraction:
        return Fraction(max(map(abs, self.nums), default=0), self.den)


def chebyshev(d: int) -> UniPoly:
    """The degree-d Chebyshev polynomial of the first kind, exact coefficients.

    Recurrence: T_0 = 1, T_1 = t, T_{k+1} = 2t*T_k - T_{k-1}, on integer coefficients.
    """
    if d < 0:
        raise InputError("chebyshev degree must be nonnegative")
    prev, cur = [1], [0, 1]
    if d == 0:
        return UniPoly(prev)
    for _ in range(d - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return UniPoly(cur)


# ---------------------------------------------------------------------------
# Sparse multilinear polynomials

Monomial = tuple[int, ...]  # sorted 1-based variable indices


@dataclass(frozen=True)
class SparsePolynomial:
    """Multilinear polynomial as a map from monomials to nonzero coefficients."""

    n: int
    terms: dict[Monomial, Coef]

    def __post_init__(self):
        """Validate and canonicalize user input: sorted in-range monomials of integer indices, exact
        or finite float coefficients, zero terms dropped."""
        clean: dict[Monomial, Coef] = {}
        for mono, coef in self.terms.items():
            try:
                key = tuple(sorted(map(operator.index, mono)))
            except TypeError:  # 1.0 or "1" would reach evaluation as an index
                raise InputError(f"monomial {mono!r} must hold integer variable indices") from None
            if len(set(key)) != len(key):
                raise InputError(f"monomial {mono} repeats a variable")
            if any(not 1 <= v <= self.n for v in key):
                raise InputError(f"monomial {mono} out of range for n={self.n}")
            c = _as_coef(coef)
            if c != 0:
                clean[key] = clean[key] + c if key in clean else c
        clean = {k: v for k, v in clean.items() if v != 0}
        for mono, c in clean.items():
            if isinstance(c, float) and not math.isfinite(c):
                raise InputError(f"coefficient of monomial {mono} must be finite, got {c}")
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _canonical(cls, n: int, terms: dict[Monomial, Coef]) -> "SparsePolynomial":
        """A polynomial from terms already in canonical form (sorted in-range monomials, nonzero
        Fraction coefficients), built without :meth:`__post_init__`'s re-validation."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", terms)
        return p

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    @property
    def degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    @property
    def weight(self) -> Coef:
        """Sum of |coefficient|: exact over one common denominator when every coefficient is a
        Fraction, else the running sum from Fraction(0) in term order, float from the first float."""
        coefs = self.terms.values()
        if not all(isinstance(c, Fraction) for c in coefs):
            return sum((abs(c) for c in coefs), start=Fraction(0))
        den = math.lcm(*{c.denominator for c in coefs})
        return Fraction(sum(abs(c.numerator) * (den // c.denominator) for c in coefs), den)

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
    """All monomials of degree <= d over n variables, sorted by (size, lex); a negative d raises."""
    if d < 0:
        raise InputError(f"degree must be nonnegative, got d={d}")
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

    def __post_init__(self):
        if not isinstance(self.outer, UniPoly):
            raise InputError(f"an affine form's outer must be a UniPoly, got {type(self.outer).__name__}")
        store_integer_weights(self)

    @property
    def n(self) -> int:
        return len(self.w)

    def argument(self, bits: Sequence[int]) -> int:
        return self.w0 + sum(wi * b for wi, b in zip(self.w, bits))


@dataclass(frozen=True)
class SumForm:
    """offset + the sum of the parts, all of one dimension; the offset is an int or a Fraction."""

    parts: tuple["StructuredPolynomial", ...]
    offset: Fraction

    def __post_init__(self):
        if not self.parts:
            raise InputError("sum form needs at least one part")
        dims = {part.n for part in self.parts}
        if len(dims) != 1:
            raise DimensionError(f"sum form parts disagree on dimension: {dims}")
        object.__setattr__(self, "offset", Fraction(*_ratio(self.offset)))

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
    """(nums, D): the exact values of p on the cube are nums / D, with nums in ``cube_matrix``
    row order and D > 0 one common denominator.

    nums is an int64 array when the bound of :func:`_support_values` proves that no
    numerator reaches 2^62, and an object array of Python ints otherwise.  Each
    form is evaluated on the variables it depends on, then spread over the cube.
    """
    if p.n > CUBE_CAP:
        raise ResourceLimitError(f"cube values span 2^{p.n} points; cap is 2^{CUBE_CAP}")
    values, denom = _support_values(p)
    full = (2,) * p.n
    return (values.reshape(-1) if values.shape == full else np.broadcast_to(values, full).flatten()), denom


def _support_values(p: StructuredPolynomial) -> tuple[np.ndarray, int]:
    """(values, D): the cube numerators of p over D as an n-axis array that broadcasts to
    (2,) * n, with length 2 on the axes of the variables p depends on and length 1 elsewhere.

    Every bound below is summed in Python ints before any int64 arithmetic runs:

    * a sparse form takes one exact Walsh-Hadamard transform of its coefficient
      numerators by mask over its variable support, in int64 when their
      absolute sum (which bounds every butterfly) is below 2^62; float
      coefficients enter as their exact Fraction;
    * an affine form takes :func:`_outer_values` of its integer linear form
      over its support;
    * a sum form adds its parts over the lcm D of their denominators, in int64
      when sum_i max|part_i| * (D / D_i) + |offset| * D stays below 2^62.
    """
    if isinstance(p, AffineForm):
        support = [j for j, wj in enumerate(p.w, start=1) if wj]
        form = linear_form(cube_matrix(len(support)), p.w0, [p.w[j - 1] for j in support])
        values, denom = _outer_values(p.outer, form)
        return _spread(values, p.n, support), denom
    if isinstance(p, SparsePolynomial):
        support = sorted({v for mono in p.terms for v in mono})
        bit = {v: 1 << (len(support) - i) for i, v in enumerate(support, start=1)}
        ratios = [c.as_integer_ratio() for c in p.terms.values()]  # exact for Fractions and floats alike
        denom = math.lcm(*(d for _, d in ratios))
        by_mask = [0] * 2 ** len(support)
        for mono, (num, d) in zip(p.terms, ratios):
            by_mask[sum(bit[v] for v in mono)] = num * (denom // d)
        values = _walsh(_exact_array(by_mask, sum(map(abs, by_mask))))[::-1]
        return _spread(values, p.n, support), denom
    if isinstance(p, SumForm):
        parts = [_support_values(part) for part in p.parts]
        offset, offset_denom = p.offset.as_integer_ratio()
        denom = math.lcm(offset_denom, *(d for _, d in parts))
        offset *= denom // offset_denom
        scaled = [(values, denom // d) for values, d in parts]
        bound = abs(offset) + sum(_abs_max(values) * s for values, s in scaled)
        dtype = np.int64 if bound < _INT64_BOUND else object
        acc = np.full(np.broadcast_shapes(*(values.shape for values, _ in scaled)), offset, dtype=dtype)
        for values, s in scaled:
            values = values.astype(dtype, copy=False)
            acc += values if s == 1 else values * s
        return acc, denom
    raise TypeError(f"not a structured polynomial: {p!r}")


def _spread(values: np.ndarray, n: int, support: Sequence[int]) -> np.ndarray:
    """Values on the sub-cube of the sorted variables ``support``, in its row order, as an n-axis
    array of length 2 on those variables' axes and 1 elsewhere, which broadcasts to the cube."""
    shape = [1] * n
    for v in support:
        shape[v - 1] = 2
    return values.reshape(shape)


def _outer_values(outer: UniPoly, stats: np.ndarray) -> tuple[np.ndarray, int]:
    """(values, D): outer(stats[i]) = values[i] / D for an integer array stats, with D the lcm of the
    reduced denominators; outer is evaluated once per distinct integer of stats.

    Horner on outer's numerators gives den * outer(t) for each distinct t;
    dividing those and den by their common gcd g leaves D = den / g, which is
    exactly that lcm.
    """
    ts, inverse = np.unique(stats, return_inverse=True)
    table = [_horner(outer.nums, t) for t in ts.tolist()]
    g = math.gcd(outer.den, *table)
    table = [v // g for v in table]
    return _exact_array(table, max(map(abs, table)))[inverse], outer.den // g


def negate_onesided(p: StructuredPolynomial) -> StructuredPolynomial:
    """The reflection x -> -p(-x), staying in the structured grammar.

    Turns a positive one-sided approximation of f into a negative one-sided
    approximation of the reflected target x -> -f(-x).
    """
    if isinstance(p, SparsePolynomial):
        return SparsePolynomial(p.n, {mono: (coef if len(mono) % 2 else -coef) for mono, coef in p.terms.items()})
    if isinstance(p, AffineForm):
        return AffineForm(-p.outer, p.w0, tuple(-wi for wi in p.w))
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
        values, denom = _support_values(p)  # the coefficients live on the support as well
        support = [j for j, size in enumerate(values.shape, start=1) if size == 2]
        return _from_cube_numerators(p.n, values.reshape(-1), denom, support)
    if isinstance(p, SumForm):
        acc = sparse_constant(p.n, p.offset)
        for part in p.parts:
            acc = acc + expand(part)
        return acc
    raise TypeError(f"not a structured polynomial: {p!r}")


def analytic_bounds(p: AffineForm) -> tuple[Fraction, int]:
    """(weight, degree) upper bounds of an affine form, read off without expanding it:
    sum_j |c_j| win^j over outer's coefficients c_j, with win = |w0| + sum |w_i|, and
    min(n, deg outer)."""
    win = abs(p.w0) + sum(abs(wi) for wi in p.w)
    bound = Fraction(_horner([abs(c) for c in p.outer.nums], win), p.outer.den)
    return bound, min(p.n, max(p.outer.degree, 0))


# ---------------------------------------------------------------------------
# Exact Walsh-Hadamard transform between cube values and coefficients


#: Every int64 array of exact numerators holds magnitudes, and every sum formed from them, below
#: this bound, proven in Python ints before the array is made; past it the array is ``object``.
_INT64_BOUND = 2**62


def _exact_array(nums: Sequence[int], bound: int) -> np.ndarray:
    """Python ints as an int64 array when ``bound``, a Python-int bound on every magnitude the
    caller will form from them, is below 2^62; as an object array of Python ints otherwise."""
    return np.array(nums, dtype=np.int64 if bound < _INT64_BOUND else object)


def _abs_max(a: np.ndarray) -> int:
    """max |a| as a Python int, for an int64 or object array of exact numerators."""
    return max(int(a.max()), -int(a.min()))


def _abs_sum(a: np.ndarray) -> int:
    """sum |a| as a Python int, for an int64 or object array of exact numerators.

    An int64 sum could itself overflow, so the magnitudes (each below 2^62)
    are summed as their high and low 31-bit halves, whose sums cannot.
    """
    if a.dtype == object:
        return sum(map(abs, a.tolist()))
    m = np.abs(a)
    return (int((m >> 31).sum()) << 31) + int((m & (2**31 - 1)).sum())


def _walsh(a: np.ndarray) -> np.ndarray:
    """t[y] = sum_m a[m] * (-1)^popcount(y & m) for a C-contiguous int64 or object array of 2^n
    ints; the butterflies run in place on a, which is returned.  Every partial sum is bounded
    by sum |a|, so an int64 array whose absolute sum is below 2^62 cannot overflow."""
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
    denom = math.lcm(*{v.denominator for v in values})
    nums = [v.numerator * (denom // v.denominator) for v in values]
    return _from_cube_numerators(n, _exact_array(nums, sum(map(abs, nums))), denom, range(1, n + 1))


def compose_counts(n: int, outer: UniPoly, counts: np.ndarray) -> SparsePolynomial:
    """The multilinear polynomial whose value at ``cube_matrix`` row r is outer(counts[r]), exactly,
    for an integer array of 2^n counts: outer is evaluated once per distinct count, then one
    transform gives the coefficients."""
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise InputError(f"composition needs integer counts, got dtype {counts.dtype}")
    if len(counts) != 2**n:
        raise DimensionError(f"composition on n={n} needs {2**n} counts, got {len(counts)}")
    values, denom = _outer_values(outer, counts)
    return _from_cube_numerators(n, values, denom, range(1, n + 1))


def _from_cube_numerators(n: int, nums: np.ndarray, denom: int, support: Sequence[int]) -> SparsePolynomial:
    """The multilinear polynomial over n variables whose values are nums / denom on the sub-cube of
    the sorted variables ``support``, in its ``cube_matrix`` row order.

    The transform runs in int64 when sum |nums|, which bounds every butterfly, is
    below 2^62.  Its output is canonical already, so the terms skip validation.
    """
    support = tuple(support)
    m = len(support)
    dtype = np.int64 if _abs_sum(nums) < _INT64_BOUND else object
    coeffs = _walsh(nums[::-1].astype(dtype, order="C"))
    masks = np.flatnonzero(coeffs)
    # a monomial is the concatenation of the variables of its mask's high and low halves
    low = m // 2
    high_monos, low_monos = _subsets(support[:m - low]), _subsets(support[m - low:])
    terms = {high_monos[mask >> low] + low_monos[mask & ((1 << low) - 1)]: Fraction(c, denom << m)
             for mask, c in zip(masks.tolist(), coeffs[masks].tolist())}
    return SparsePolynomial._canonical(n, terms)


def _subsets(variables: Sequence[int]) -> list[Monomial]:
    """The sorted subsets of ``variables`` (sorted) indexed by mask, variables[0] the highest bit."""
    out: list[Monomial] = [()]
    for v in variables:
        out = [s for t in out for s in (t, t + (v,))]
    return out


def exact_multilinear(f: BoolFunc, n: int) -> SparsePolynomial:
    """The unique multilinear polynomial agreeing with f on the whole cube.

    Coefficients are exact rationals, one transform of the target's +-1
    values; ``EXPANSION_CAP`` bounds n, as it bounds :func:`expand`.
    """
    if n > EXPANSION_CAP:
        raise ResourceLimitError(f"exact interpolation enumerates 2^{n} points; cap is 2^{EXPANSION_CAP}")
    # as int64: the 31-bit mask of _abs_sum does not fit in an int8 array
    return _from_cube_numerators(n, target_values(f, cube_matrix(n)).astype(np.int64), 1, range(1, n + 1))


# ---------------------------------------------------------------------------
# JSON serialization


def _coef_to_str(c: Coef) -> str:
    return str(c) if isinstance(c, Fraction) else repr(float(c))


def _coef_from_str(s: str) -> Coef:
    """Inverse of :func:`_coef_to_str`: an int or fraction string is an exact Fraction, and a float
    repr (any other string) is that float, so a float coefficient reads back as the same value."""
    try:
        return Fraction(s) if re.fullmatch(r"[+-]?\d+(/\d+)?", s) else float(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a coefficient: {s!r}") from None


def sparse_to_json(p: SparsePolynomial) -> dict:
    terms = [
        {"vars": list(mono), "coef": _coef_to_str(coef)}
        for mono, coef in sorted(p.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return {"n": p.n, "terms": terms}


def sparse_from_json(obj: Mapping) -> SparsePolynomial:
    terms = {}
    for t in json_field(obj, "terms", list, "sparse polynomial"):
        terms[tuple(json_int_list(t, "vars", "term"))] = _coef_from_str(json_field(t, "coef", str, "term"))
    return SparsePolynomial(json_field(obj, "n", int, "sparse polynomial"), terms)


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
    """Inverse of :func:`structured_to_json`; a malformed object raises InputError naming the field."""
    # sparse_to_json, as in a learned hypothesis, writes no tag
    form = json_field(obj, "form", str, "polynomial", "sparse")
    if form == "sparse":
        return sparse_from_json(obj)
    if form == "affine":
        outer = [_exact_from_str(c) for c in json_field(obj, "outer", list, "affine form")]
        return AffineForm(UniPoly(outer), json_field(obj, "w0", (int, float), "affine form"),
                          json_int_list(obj, "w", "affine form"))
    if form == "sum":
        parts = tuple(structured_from_json(part) for part in json_field(obj, "parts", list, "sum form"))
        return SumForm(parts, _exact_from_str(json_field(obj, "offset", str, "sum form")))
    raise InputError(f"unknown structured polynomial form {form!r}")


def _exact_from_str(s) -> Fraction:
    """An exact coefficient or offset written as a string, such as "-3", "1/3" or "0.25"."""
    if not isinstance(s, str):
        raise InputError(f"an exact coefficient must be a string such as \"1/3\", got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not an exact coefficient: {s!r}") from None
