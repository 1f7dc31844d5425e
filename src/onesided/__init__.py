"""Reliable agnostic learning from one-sided polynomial approximations.

Submodules
----------
cube
    Boolean cube points, concepts, labeled samples, error metrics.
poly
    Univariate / sparse multilinear polynomials, Chebyshev generation,
    structured (composed) forms, expansion, exact interpolation.
constructions
    Explicit one-sided and two-sided approximating polynomials for
    halfspaces, majorities, their disjunctions/conjunctions, and DNF/CNF.
certify
    Exhaustive one-sided/two-sided certification plus the LP oracle for the
    minimal achievable error at a fixed degree.
lp
    Matrix-form, sparse linear-program surface for the learners and oracles.
learn
    The disjunction eliminator, the reliable hinge-loss LP learner with
    rounding/derandomization, the weight-capped L1 learner, the fully
    reliable combiner, and sample-size planning.
harness
    Synthetic distribution generators, brute-force reliable baselines,
    reproducible experiment orchestration.
cli
    A thin command-line binding over all of the above.
"""

from . import certify, constructions, cube, harness, learn, lp, poly  # noqa: F401
