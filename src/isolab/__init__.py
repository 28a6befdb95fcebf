"""isolab: exact and numeric solution families for isomonodromic systems.

The package builds the explicit solution families of triangular Schlesinger
systems attached to superelliptic curves w^m = (z-a_1)...(z-a_N), the
rational/Liouvillian Painleve VI families they induce for 2x2 matrices with
three poles, and the algebraic Garnier solutions for more poles - and then
verifies each construction: identically-zero residuals in exact
rational-function arithmetic wherever solutions are rational in the pole
positions, tolerance-based numeric checks (contour integration, quadrature,
finite differences) for period-integral and quadrature-based solutions.
"""

from .algebra import (MultiPoly, RatFunc, FactoredFrac, binom, parse_poly,
                      parse_ratfunc, poly_gcd)
from .curves import (SuperellipticCurve, CurveInvariants, TruncatedSeries,
                     curve_invariants, cycle_count, residue_series_oracle)
from .schlesinger import (ExponentGrid, TriangularSolution, HypothesisError,
                          build_polynomial_solution, build_rational_solution,
                          schlesinger_residual, residual_is_zero,
                          sum_constraint, tau_exponents, cross_terms)
from .painleve import (ThetaTuple, PVIParams, PVISolutionFamily, pvi_params,
                       y_from_b, linear_system_residual, hypergeom_residual,
                       pvi_residual, degenerate_parameter_check,
                       conjugate_momentum, hamiltonian_system_residual,
                       polynomial_triple, pq_polynomials, thm5_solution,
                       rational_sextet, thm6_family, thm7_b1, thm7_b3,
                       thm7_solution, thm8_b_functions, thm8_family,
                       admissible_thm8_triples, polynomial_zeros,
                       coefficient_list, is_palindromic)
from .okamoto import (OkamotoCoords, apply_word, okamoto_apply,
                      degenerate_prolongation, riccati_residual, h_polynomial,
                      DegenerateTransform)
from .liouville import LiouvillianFamily, liouvillian_eval
from .garnier import (GarnierSpec, GarnierAlgebraicSolution, pm_polynomial,
                      thm10_solution, thm11_family, residue_basis_vector,
                      u_roots, v_momenta, theta_from_eps, garnier_residual_m2)
from .periods import (PathSpec, LineSegment, ArcSegment, BranchTracker,
                      continue_w, build_cycle_basis, double_loop,
                      puncture_loop, infinity_loop, integrate_omega,
                      period_matrix, rank_check, isomonodromy_fd_check,
                      PeriodMatrix, QuadratureStats)

__version__ = "0.1.0"
