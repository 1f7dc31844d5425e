# The LP oracle: exact minimal error at each degree.
#
# min_eps solves a linear program over all polynomial coefficients of degree
# at most d, minimizing the error parameter subject to the chosen
# approximation mode's constraints at every cube point.  It is the ground
# truth the rest of the test suite leans on.  Every function below is
# symmetric in its literals, so min_eps solves the level LP: averaging a
# witness over permutations of the literals keeps it feasible, so some
# optimal witness is sum_j c_j e_j (e_j the sum of the degree-j monomials),
# and its constraints depend only on the number u of false literals, where
# e_j takes the Krawtchouk value K_j(u; n).  That LP has d + 2 columns and
# n + 1 row blocks instead of one column per monomial and one block per cube
# point, with the same optimum.  The tables below show the gap
# between one-sided and two-sided approximation: OR is positively one-sided
# representable at degree 1 with zero error, while its negative one-sided
# error stays large until the degree reaches n.

from onesided.certify import min_eps
from onesided.cube import Conjunction, Disjunction, Majority

functions = {
    "OR_3": Disjunction(3, (1, 2, 3)),
    "AND_3": Conjunction(3, (1, 2, 3)),
    "MAJ_5": Majority(5, (1, 2, 3, 4, 5)),
}

for name, f in functions.items():
    print(f"\n{name} (n={f.n})")
    print(f"{'d':>3} {'positive':>10} {'negative':>10} {'twosided':>10}")
    for d in range(1, f.n + 1):
        row = [min_eps(f, d, mode)[0] for mode in ("positive", "negative", "twosided")]
        print(f"{d:>3} {row[0]:>10.6f} {row[1]:>10.6f} {row[2]:>10.6f}")

# Reading the OR_3 table: positive one-sided error is 0 already at d=1
# (witness: x1 + x2 + x3 + 2), negative one-sided error only vanishes at
# d=n, and the two-sided column upper-bounds both -- every two-sided
# approximation satisfies both one-sided conditions.
#
# The MAJ_5 table shows the phenomenon that makes reliable learning cheaper
# than agnostic learning for majorities: both one-sided errors hit 0 at
# degree 3 while the two-sided error stays at 0.375 until degree 5.
