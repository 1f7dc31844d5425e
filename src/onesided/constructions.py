"""Explicit one-sided and two-sided approximating polynomials.

All constructions are built in exact rational arithmetic so the defining
identities (normalization at the top endpoint, prescribed roots) hold
bit-exactly.  Asymptotic parameter choices are replaced by fixed explicit
constants plus one doubling schedule on the step-polynomial degree budget,
shared by the halfspace and AND-tradeoff searches.  Every result carries
size bounds read off the form (analytic for an ``AffineForm``, exact from the
expansion otherwise) and an exhaustive certificate.  Halfspace constructions
and the AND tradeoff are certified on levels (:func:`certify.verify_levels`)
at any n, within ``LEVEL_STATE_CAP``; the DNF/CNF lifts scan the cube, within
``CUBE_CAP``.  The certificate is None past the cap of its route.

Two details carry the sgn(0) = -1 tie convention:

* the quartic construction's values on false points land in [-1, -3/4],
  which is exactly what the one-sided definition needs at eps = 1/4;
* the step-polynomial construction composes with the never-zero shifted
  linear form t' = 2*(w0 + sum w_i x_i) - 1 of weight W' = 2W + 1 and wraps
  the output as 2*S(W' + t') - 1, so false points map near -1 instead of 0
  and no false point (tied or not) can reach the normalization argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .certify import CertReport, verify_levels, verify_onesided, verify_twosided
from .cube import NEGATIVE, POSITIVE, TWOSIDED, Concept, Conjunction, Cnf, Dnf, Halfspace, cube_matrix
from .errors import InputError, ParameterError, ResourceLimitError
from .poly import (EXPANSION_CAP, AffineForm, SparsePolynomial, StructuredPolynomial, SumForm, UniPoly,
                   analytic_bounds, chebyshev, compose_counts, expand, negate_onesided, sparse_constant)


@dataclass(frozen=True)
class OneSidedSpec:
    """What a constructed polynomial claims: target, side, error, size bounds."""

    target: Concept
    sign: str
    eps: float
    degree_bound: int
    weight_bound: float

    def __post_init__(self):
        if self.sign not in (POSITIVE, NEGATIVE, TWOSIDED):
            raise InputError(f"sign must be positive/negative/twosided, got {self.sign!r}")
        if not 0 < self.eps < 1:
            raise InputError(f"eps must lie in (0, 1), got {self.eps}")
        if self.degree_bound < 1:
            raise InputError("degree bound must be >= 1")


@dataclass(frozen=True)
class ConstructionResult:
    """A constructed polynomial together with its claim and certificate.

    ``certificate`` is None when the target cube was too large to enumerate;
    ``certified`` is True only for an exhaustively verified claim.
    """

    poly: StructuredPolynomial
    claim: OneSidedSpec
    certificate: CertReport | None
    step_degree: int | None  # chosen step-polynomial degree budget k, None without a step polynomial

    @property
    def certified(self) -> bool:
        return self.certificate is not None and self.certificate.ok


def certified(poly: StructuredPolynomial, target: Concept, sign: str, eps: float,
              step_degree: int | None) -> ConstructionResult:
    """``poly`` claimed as a ``sign`` eps-approximation of ``target``, with its certificate.

    The certificate comes from :func:`verify_onesided` or :func:`verify_twosided`, so an
    ``AffineForm`` against a halfspace or a majority is certified on levels at any n; it
    is None where the verifier refuses, past ``LEVEL_STATE_CAP`` or ``CUBE_CAP``.
    """
    try:
        cert = verify_twosided(poly, target, eps) if sign == TWOSIDED else verify_onesided(poly, target, eps, sign)
    except ResourceLimitError:
        cert = None
    return _claimed(poly, target, sign, eps, step_degree, cert)


def _claimed(poly: StructuredPolynomial, target: Concept, sign: str, eps: float, step_degree: int | None,
             cert: CertReport | None) -> ConstructionResult:
    """``poly`` with its claim and the certificate ``cert``.

    Expanding an ``AffineForm`` is exponential, so its bounds are analytic; every other
    form claims the exact weight and degree of its expansion.  A weight past the float
    range is claimed as inf, still an upper bound.
    """
    if isinstance(poly, AffineForm):
        wb, db = analytic_bounds(poly)
    else:
        full = expand(poly)
        wb, db = full.weight, full.degree
    try:
        weight = float(wb)
    except OverflowError:
        weight = math.inf
    return ConstructionResult(poly, OneSidedSpec(target, sign, eps, max(db, 1), weight), cert, step_degree)


# ---------------------------------------------------------------------------
# Constant-error construction: Chebyshev quartic


def halfspace_quarter(h: Halfspace) -> AffineForm:
    """Positive one-sided 1/4-approximation of an integer-weight halfspace.

    With W the halfspace weight and d = ceil(sqrt(W)), composes
    P(t) = (T_d(2t/W + 1))^4 / 4 - 1 with the integer linear form.  On false
    points (linear form in [-W, 0]) the value lies in [-1, -3/4]; on true
    points (linear form >= 1) it is at least 3.  Degree 4*ceil(sqrt(W)).
    """
    W = h.weight
    d = math.isqrt(W)
    if d * d < W:
        d += 1
    G = chebyshev(d).compose_affine(Fraction(2, W), Fraction(1))
    P = (G.pow(4) * Fraction(1, 4)).shift(-1)
    return AffineForm(P, h.w0, h.w)


# ---------------------------------------------------------------------------
# Step polynomials: ~0 on {0..W-1}, exactly 1 at W, >= 1 beyond


@dataclass(frozen=True)
class StepPolyParams:
    """Degree budget split for :func:`step_poly`.

    The polynomial vanishes on {0..a} and {W-b..W-1}, is normalized to 1 at
    W, and spends the remaining degree r on a rescaled Chebyshev factor.
    Actual degree is a + 1 + b + r, kept <= k by the default rule
    r = k - (a+1) - b.
    """

    W: int
    k: int
    a: int
    b: int
    r: int

    def __post_init__(self):
        if self.W < 2:
            raise ParameterError("step polynomial needs W >= 2")
        if min(self.a, self.b, self.r) < 0:
            raise ParameterError("a, b, r must be nonnegative")
        if self.a + self.b > self.k:
            raise ParameterError("a + b may not exceed the degree budget k")
        if self.degree > self.k + 1:
            raise ParameterError(f"degree {self.degree} exceeds k+1 = {self.k + 1}")
        if self.W - self.b - self.a <= 0:
            raise ParameterError(f"need W - b - a > 0, got {self.W - self.b - self.a}")

    @property
    def degree(self) -> int:
        return self.a + 1 + self.b + self.r


def default_step_params(W: int, k: int) -> StepPolyParams:
    """The fixed explicit parameter rule (constant 1/4 in both ratios).

    a = ceil(k / (4 log2 W)), b = ceil(k^2 / (4 W log2 W)), r = k - (a+1) - b;
    raises once r would go negative.
    """
    if W < 2:
        raise ParameterError("step parameters need W >= 2")
    if k < 3:
        raise ParameterError("step parameters need k >= 3")
    log2w = math.log2(W)
    a = max(0, math.ceil(k / (4 * log2w)))
    b = max(0, math.ceil(k * k / (4 * W * log2w)))
    r = k - (a + 1) - b
    if r < 0:
        raise ParameterError(f"degree budget k={k} too small for a={a}, b={b} (needs k >= a+b+1)")
    return StepPolyParams(W, k, a, b, r)


def step_poly(params: StepPolyParams) -> UniPoly:
    """The normalized step polynomial S with S(W) = 1 exactly.

    S(t) = C^-1 * prod_{i=0..a}(t-i) * prod_{j=W-b..W-1}(t-j)
               * T_r((t-a)/(W-b-a)),
    with C the same expression at t = W.  The upper root product stops at
    W-1; running it through W would zero the normalization constant.
    """
    W, a, b, r = params.W, params.a, params.b, params.r
    prod = UniPoly((Fraction(1),))
    for i in range(a + 1):
        prod = prod * UniPoly((Fraction(-i), Fraction(1)))
    for j in range(W - b, W):
        prod = prod * UniPoly((Fraction(-j), Fraction(1)))
    denom = W - b - a
    cheb = chebyshev(r).compose_affine(Fraction(1, denom), Fraction(-a, denom))
    poly = prod * cheb
    c = poly(W)
    if c == 0:
        raise ParameterError("normalization constant vanished at W")
    return poly * (Fraction(1) / c)


#: What a schedule attempt returns: the budget's certificate and a builder of its result.
Attempt = tuple[CertReport | None, Callable[[], ConstructionResult]]


def _step_schedule(W: int, eps: float, attempt: Callable[[int], Attempt]) -> ConstructionResult | None:
    """``attempt(k)`` over the degree budgets k0 = max(3, ceil(sqrt(W log2(W) ln(2/eps)))), 2 k0, ... < 4W, 4W.

    Skips budgets that raise ``ParameterError``; builds the result of the first budget
    that is certified or has no certificate, else of the last (None if none was valid),
    so a budget that does not certify need build nothing beyond its certificate.
    """
    k = max(3, math.ceil(math.sqrt(W * math.log2(W) * math.log(2 / eps))))
    budgets = []
    while k < 4 * W:
        budgets.append(k)
        k *= 2
    last = None
    for k in budgets + [4 * W]:
        try:
            cert, last = attempt(k)
        except ParameterError:
            continue
        if cert is None or cert.ok:
            break
    return last() if last else None


# ---------------------------------------------------------------------------
# Subconstant-error halfspace construction


def reflect_halfspace(h: Halfspace) -> Halfspace:
    """The halfspace g with -g(-x) = h(x) under the sgn(0) = -1 convention."""
    if h.w0 == 1 and not any(h.w):  # constant +1: reflect to the weight-1 constant -1
        return Halfspace(h.n, -1, h.w)
    return Halfspace(h.n, 1 - h.w0, h.w)


def halfspace_onesided(h: Halfspace, sign: str, eps: float) -> ConstructionResult:
    """One-sided eps-approximation of an integer-weight halfspace.

    The step-polynomial degree budget follows :func:`_step_schedule` at
    W' = 2W + 1, falling back to the largest valid budget when k0 lies above
    all of them (small W').  The negative side is the reflection -p(-x) of the
    positive construction for the reflected halfspace.  Every budget is certified
    on levels, at any n; past ``LEVEL_STATE_CAP`` (and ``CUBE_CAP``) the first
    valid budget's polynomial comes with ``certificate=None``.
    """
    if sign not in (POSITIVE, NEGATIVE):
        raise InputError(f"sign must be positive or negative, got {sign!r}")
    if not 0 < eps <= 0.5:
        raise InputError(f"eps must lie in (0, 1/2], got {eps}")
    base = h if sign == POSITIVE else reflect_halfspace(h)
    Wp = 2 * base.weight + 1

    def attempt(k: int) -> Attempt:
        # 2*S(W' + t') - 1 over the shifted linear form t' = 2*linform - 1
        outer = (step_poly(default_step_params(Wp, k)) * 2).shift(-1)
        form = AffineForm(outer, Wp - 1 + 2 * base.w0, tuple(2 * wi for wi in base.w))
        result = certified(form if sign == POSITIVE else negate_onesided(form), h, sign, eps, k)
        return result.certificate, lambda: result

    result = _step_schedule(Wp, eps, attempt)
    if result is not None:
        return result
    for k in range(4 * Wp, 2, -1):  # valid budgets form one range, which here ends below k0
        try:
            return attempt(k)[1]()
        except ParameterError:
            continue
    raise ParameterError(f"no valid step parameters for W'={Wp}")


# ---------------------------------------------------------------------------
# Compositions


def or_compose(parts: list[StructuredPolynomial]) -> StructuredPolynomial:
    """p = -1 + sum_i (1 + p_i).

    If each part is a positive one-sided (eps/m)-approximation of f_i, the
    result is a positive one-sided eps-approximation of OR_m(f_1..f_m) with
    degree max_i deg(p_i) and weight at most sum_i weight(p_i) + (m-1).
    """
    if not parts:
        raise InputError("or_compose needs at least one part")
    return SumForm(tuple(parts), Fraction(len(parts) - 1))


def and_compose(parts: list[StructuredPolynomial]) -> StructuredPolynomial:
    """p = 1 - sum_i (1 - p_i), the De Morgan mirror of :func:`or_compose`.

    Takes negative one-sided (eps/m)-approximations of the f_i to a negative
    one-sided eps-approximation of AND_m(f_1..f_m), same size bounds.
    """
    if not parts:
        raise InputError("and_compose needs at least one part")
    return SumForm(tuple(parts), Fraction(1 - len(parts)))


# ---------------------------------------------------------------------------
# Degree / weight tradeoff for conjunctions, and DNF/CNF lifts


def _block_count_candidates(n: int, ratio_cap: float) -> list[int]:
    """Divisors t of n with t/log2(t) <= ratio_cap, largest first; 1 always
    qualifies, so the list is never empty."""
    return [
        t
        for t in sorted((t for t in range(1, n + 1) if n % t == 0), reverse=True)
        if t == 1 or t / math.log2(t) <= ratio_cap
    ]


def _count_attempt(n: int, t: int, outer: UniPoly, eps: float, k: int | None) -> Attempt:
    """p = outer(number of true blocks) over t consecutive blocks of n // t variables: its certificate
    against AND_n = sgn(count + 1 - t) on the t + 1 count levels, and a builder of its result.

    On each block both statistics are 1 where the block is all true and 0 elsewhere, so the
    block is one level group; only the builder expands p, by :func:`compose_counts`.
    """
    b = n // t
    cert = verify_levels(outer, 0, 1 - t, [{(0, 0): (-1,) * b, (1, 1): (1,) * b}] * t, eps, TWOSIDED)

    def build() -> ConstructionResult:
        # blocks are the consecutive runs of n // t variables, i.e. of cube_matrix columns
        true_blocks = (cube_matrix(n).reshape(-1, t, b) == 1).all(axis=2).sum(axis=1)
        return _claimed(compose_counts(n, outer, true_blocks), Conjunction(n, tuple(range(1, n + 1))), TWOSIDED,
                        eps, k, cert)

    return cert, build


def and_twosided_tradeoff(n: int, d: int, eps: float) -> ConstructionResult:
    """Two-sided eps-approximation of AND_n trading degree for weight.

    Splits the input into t blocks (t the largest divisor of n with
    t/log2(t) <= n^2 log2(1/eps)/d^2), counts the true blocks at every cube
    point, and wraps that count with a step polynomial, p = 2*S(count) - 1,
    S built at W = t with the doubling schedule; t = 1 is the exact product
    form 2*AND_n - 1, of outer 2c - 1.  AND_n is sgn(count + 1 - t), so each
    budget is certified on the t + 1 count levels (:func:`verify_levels`), and
    only the chosen one is expanded by :func:`compose_counts` to a sparse
    multilinear form; n must stay within ``EXPANSION_CAP``.
    """
    if n < 1:
        raise InputError("and_twosided_tradeoff needs n >= 1")
    if d < 1:
        raise InputError(f"and_twosided_tradeoff needs degree d >= 1, got {d}")
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    if n > EXPANSION_CAP:
        raise ResourceLimitError(f"tradeoff construction expands; n={n} exceeds cap {EXPANSION_CAP}")
    ratio_cap = n * n * math.log2(1 / eps) / (d * d)
    for t in _block_count_candidates(n, ratio_cap):
        if t == 1:
            return _count_attempt(n, 1, UniPoly((-1, 2)), eps, None)[1]()
        result = _step_schedule(
            t, eps, lambda k, t=t: _count_attempt(n, t, (step_poly(default_step_params(t, k)) * 2).shift(-1), eps, k))
        if result is not None:
            return result  # an uncertified result records the exhausted schedule in its certificate
        # the chosen block count admits no valid step parameters (tiny W=t);
        # fall through to the next smaller divisor, ending at the exact t=1 form
    raise ParameterError(f"no valid block count for n={n}")


def _clause_twosided(n: int, clause: tuple[int, ...], d: int, eps: float,
                     by_width: dict[int, SparsePolynomial]) -> SparsePolynomial:
    """Two-sided eps-approximation of one AND-clause, negations by reflection.

    The AND approximation depends only on the clause's width, so it is built once per
    width and kept in ``by_width`` for the other clauses of that width."""
    if not clause:
        return sparse_constant(n, 1)  # empty clause is identically true
    width = len(clause)
    if width not in by_width:
        inner = and_twosided_tradeoff(width, d, eps)
        if not inner.certified:
            raise ParameterError(f"clause approximation failed to certify at width {width}")
        by_width[width] = inner.poly
    return by_width[width].substitute_literals(n, clause)


def _dnf_form(F: Dnf, d: int, eps: float) -> StructuredPolynomial:
    """Positive one-sided eps-approximation of a DNF, uncertified."""
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    m = len(F.clauses)
    if m == 0:
        return sparse_constant(F.n, -1)
    by_width: dict[int, SparsePolynomial] = {}  # lives for this call only
    return or_compose([_clause_twosided(F.n, cl, d, eps / m, by_width) for cl in F.clauses])


def dnf_positive_onesided(F: Dnf, d: int, eps: float) -> ConstructionResult:
    """Positive one-sided eps-approximation of a DNF.

    Every clause receives a two-sided (eps/m)-approximation from the
    conjunction tradeoff (literal negations handled by reflecting inputs into
    the clause polynomial); the clause polynomials are then combined with
    :func:`or_compose`.
    """
    if not isinstance(F, Dnf):
        raise InputError(f"dnf_positive_onesided needs a DNF, got {type(F).__name__}")
    return certified(_dnf_form(F, d, eps), F, POSITIVE, eps, None)


def cnf_negative_onesided(F: Cnf, d: int, eps: float) -> ConstructionResult:
    """Negative one-sided eps-approximation of a CNF, by reflection.

    -F(-x) is the DNF with the same signed clauses, so the negative
    approximation of F is -p(-x) for p the positive approximation of that
    DNF; only the reflected polynomial is certified, against F directly.
    """
    if not isinstance(F, Cnf):
        raise InputError(f"cnf_negative_onesided needs a CNF, got {type(F).__name__}")
    return certified(negate_onesided(_dnf_form(Dnf(F.n, F.clauses), d, eps)), F, NEGATIVE, eps, None)
