"""Explicit one-sided and two-sided approximating polynomials.

All constructions are built in exact rational arithmetic so the defining
identities (normalization at the top endpoint, prescribed roots) hold
bit-exactly.  Asymptotic parameter choices are replaced by fixed explicit
constants plus a doubling schedule on the step-polynomial degree, with
exhaustive certification as the acceptance gate at desk scale; results that
could not be enumerated carry ``certificate=None``.

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

from .certify import CUBE_CAP, CertReport, verify_onesided, verify_twosided
from .cube import NEGATIVE, POSITIVE, TWOSIDED, Concept, Conjunction, Cnf, Dnf, Halfspace
from .errors import InputError, ParameterError, ResourceLimitError
from .poly import (AffineForm, SparseForm, SparsePolynomial, StructuredPolynomial,
                   SumForm, UniPoly, chebyshev, negate_onesided, sparse_constant,
                   weight_and_degree)


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
    step_degree: int | None = None  # chosen step-polynomial degree budget k

    @property
    def certified(self) -> bool:
        return self.certificate is not None and self.certificate.ok


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


def _doubling_schedule(k0: int, kmax: int) -> list[int]:
    ks, k = [], max(3, k0)
    while k < kmax:
        ks.append(k)
        k *= 2
    ks.append(max(3, kmax))
    return sorted(set(ks))


# ---------------------------------------------------------------------------
# Subconstant-error halfspace construction


def _step_form(base: Halfspace, k: int) -> tuple[AffineForm, StepPolyParams]:
    """2*S(W' + t') - 1 over the shifted linear form t' = 2*linform - 1."""
    W = base.weight
    Wp = 2 * W + 1
    params = default_step_params(Wp, k)
    outer = (step_poly(params) * 2).shift(-1)
    return AffineForm(outer, 2 * W + 2 * base.w0, tuple(2 * wi for wi in base.w)), params


def reflect_halfspace(h: Halfspace) -> Halfspace:
    """The halfspace g with -g(-x) = h(x) under the sgn(0) = -1 convention."""
    return Halfspace(h.n, 1 - h.w0, h.w)


def halfspace_onesided(
    h: Halfspace,
    sign: str,
    eps: float,
    cube_cap: int = CUBE_CAP,
) -> ConstructionResult:
    """One-sided eps-approximation of an integer-weight halfspace.

    The step-polynomial degree budget k starts at
    ceil(sqrt(W' log2(W') ln(2/eps))) and doubles until exhaustive
    certification passes or the schedule exhausts at 4*W'.  The negative
    side is the reflection -p(-x) of the positive construction for the
    reflected halfspace.  When n exceeds ``cube_cap`` the analytic-k
    polynomial is returned with ``certificate=None``.
    """
    if sign not in (POSITIVE, NEGATIVE):
        raise InputError(f"sign must be positive or negative, got {sign!r}")
    if not 0 < eps <= 0.5:
        raise InputError(f"eps must lie in (0, 1/2], got {eps}")
    base = h if sign == POSITIVE else reflect_halfspace(h)
    Wp = 2 * base.weight + 1
    k0 = math.ceil(math.sqrt(Wp * math.log2(Wp) * math.log(2 / eps)))
    last: ConstructionResult | None = None
    for k in _doubling_schedule(k0, 4 * Wp):
        try:
            form, _ = _step_form(base, k)
        except ParameterError:
            continue
        poly = form if sign == POSITIVE else negate_onesided(form)
        wb, db, _ = weight_and_degree(poly, cap=0)
        claim = OneSidedSpec(h, sign, eps, max(db, 1), float(wb))
        if h.n > cube_cap:
            return ConstructionResult(poly, claim, None, k)
        cert = verify_onesided(poly, h, eps, sign, cap=cube_cap)
        last = ConstructionResult(poly, claim, cert, k)
        if cert.ok:
            return last
    if last is None:
        raise ParameterError(f"no valid step parameters for W'={Wp} in the doubling schedule")
    return last


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


def exact_and_sparse(n: int, block: tuple[int, ...]) -> SparsePolynomial:
    """The exact multilinear AND over ``block`` inside n variables.

    2 * prod_{j in block} (1 + x_j)/2 - 1; degree |block|, weight < 3.
    """
    scale = Fraction(2, 2 ** len(block))
    terms: dict[tuple[int, ...], Fraction] = {}
    subsets = [()]
    for v in block:
        subsets += [s + (v,) for s in subsets]
    for s in subsets:
        terms[tuple(sorted(s))] = scale
    terms[()] = terms.get((), Fraction(0)) - 1
    return SparsePolynomial(n, terms)


def _block_count_candidates(n: int, ratio_cap: float) -> list[int]:
    """Divisors t of n with t/log2(t) <= ratio_cap, largest first; 1 always
    qualifies, so the list is never empty."""
    return [
        t
        for t in sorted((t for t in range(1, n + 1) if n % t == 0), reverse=True)
        if t == 1 or t / math.log2(t) <= ratio_cap
    ]


def and_twosided_tradeoff(
    n: int,
    d: int,
    eps: float,
    cube_cap: int = CUBE_CAP,
    expansion_cap: int = 20,
) -> ConstructionResult:
    """Two-sided eps-approximation of AND_n trading degree for weight.

    Splits the input into t blocks (t the largest divisor of n with
    t/log2(t) <= n^2 log2(1/eps)/d^2), computes each block's AND exactly by
    the product form, and wraps the count of true blocks with a step
    polynomial: p = 2*S(#true blocks) - 1, S built at W = t with the doubling
    schedule.  The result is expanded to a sparse multilinear form, so n must
    stay within ``expansion_cap``.
    """
    if n < 1:
        raise InputError("and_twosided_tradeoff needs n >= 1")
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    if n > expansion_cap:
        raise ResourceLimitError(f"tradeoff construction expands; n={n} exceeds cap {expansion_cap}")
    target = Conjunction(n, tuple(range(1, n + 1)))
    ratio_cap = n * n * math.log2(1 / eps) / (d * d)
    for t in _block_count_candidates(n, ratio_cap):
        block_size = n // t
        blocks = [tuple(range(i * block_size + 1, (i + 1) * block_size + 1)) for i in range(t)]

        if t == 1:
            q = exact_and_sparse(n, blocks[0])
            poly = SparseForm(q)
            claim = OneSidedSpec(target, TWOSIDED, eps, max(q.degree, 1), float(q.weight))
            cert = verify_twosided(poly, target, eps, cap=cube_cap)
            return ConstructionResult(poly, claim, cert, None)

        qs = [exact_and_sparse(n, blk) for blk in blocks]
        count = sparse_constant(n, Fraction(t, 2))  # s = (t + sum_i q_i) / 2
        for q in qs:
            count = count + q.scale(Fraction(1, 2))

        k0 = math.ceil(math.sqrt(t * math.log2(t) * math.log(2 / eps)))
        last: ConstructionResult | None = None
        for k in _doubling_schedule(k0, 4 * t):
            try:
                S = step_poly(default_step_params(t, k))
            except ParameterError:
                continue
            acc = sparse_constant(n, 0)
            for c in reversed(S.coeffs):
                acc = acc * count + sparse_constant(n, c)
            p_sparse = acc.scale(2) + sparse_constant(n, -1)
            poly = SparseForm(p_sparse)
            claim = OneSidedSpec(target, TWOSIDED, eps, max(p_sparse.degree, 1), float(p_sparse.weight))
            cert = verify_twosided(poly, target, eps, cap=cube_cap)
            last = ConstructionResult(poly, claim, cert, k)
            if cert.ok:
                return last
        if last is not None:
            return last  # schedule exhausted at the chosen t; certificate records it
        # the chosen block count admits no valid step parameters (tiny W=t);
        # fall through to the next smaller divisor, ending at the exact t=1 form
    raise ParameterError(f"no valid block count for n={n}")


def _clause_twosided(n: int, clause: tuple[int, ...], d: int, eps: float) -> SparseForm:
    """Two-sided eps-approximation of one AND-clause, negations by reflection."""
    if not clause:
        return SparseForm(sparse_constant(n, 1))  # empty clause is identically true
    inner = and_twosided_tradeoff(len(clause), d, eps)
    if not inner.certified:
        raise ParameterError(f"clause approximation failed to certify at width {len(clause)}")
    assert isinstance(inner.poly, SparseForm)
    return SparseForm(inner.poly.poly.substitute_literals(n, clause))


def dnf_positive_onesided(F: Dnf, d: int, eps: float, cube_cap: int = CUBE_CAP) -> ConstructionResult:
    """Positive one-sided eps-approximation of a DNF.

    Every clause receives a two-sided (eps/m)-approximation from the
    conjunction tradeoff (literal negations handled by reflecting inputs into
    the clause polynomial); the clause polynomials are then combined with
    :func:`or_compose`.
    """
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    m = len(F.clauses)
    if m == 0:
        poly: StructuredPolynomial = SparseForm(sparse_constant(F.n, -1))
    else:
        parts = [_clause_twosided(F.n, cl, d, eps / m) for cl in F.clauses]
        poly = or_compose(parts)
    wb, db, _ = weight_and_degree(poly)
    claim = OneSidedSpec(F, POSITIVE, eps, max(db, 1), float(wb))
    cert = verify_onesided(poly, F, eps, POSITIVE, cap=cube_cap) if F.n <= cube_cap else None
    return ConstructionResult(poly, claim, cert, None)


def cnf_negative_onesided(F: Cnf, d: int, eps: float, cube_cap: int = CUBE_CAP) -> ConstructionResult:
    """Negative one-sided eps-approximation of a CNF, by reflection.

    -F(-x) is the DNF with the same signed clauses, so the negative
    approximation of F is -p(-x) for p the positive approximation of that
    DNF; the certificate is recomputed against F directly.
    """
    mirror = Dnf(F.n, F.clauses)
    pos = dnf_positive_onesided(mirror, d, eps, cube_cap=cube_cap)
    poly = negate_onesided(pos.poly)
    wb, db, _ = weight_and_degree(poly)
    claim = OneSidedSpec(F, NEGATIVE, eps, max(db, 1), float(wb))
    cert = verify_onesided(poly, F, eps, NEGATIVE, cap=cube_cap) if F.n <= cube_cap else None
    return ConstructionResult(poly, claim, cert, pos.step_degree)
