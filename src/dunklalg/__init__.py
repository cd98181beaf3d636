"""Exact symbolic engine for Dunkl angular momenta algebras.

Modules:
  exactmath   scalar/polynomial/linear-algebra substrate over Q[g1..gk], and
              add_term/render_terms, which every linear-combination type
              uses to accumulate and to print its terms, and Combination,
              the one copy of their module arithmetic
  coxeter     root systems, reflection groups, group-algebra pairings (as
              term maps from group elements to coefficients)
  cherednik   PBW rewriting engine for the rational Cherednik algebra
  polyrep     faithful polynomial representation (the evaluation oracle)
  subalgebra  so/gl angular momenta subalgebras: bases, straightening, centre
  suites      named verification suites
  expr, cli   expression language and command-line front end
"""

from .cherednik import (
    CherednikContext,
    PBWElement,
    adjoint,
    angular_hamiltonian,
    angular_momentum,
    anticommutator,
    commutator,
    e_generator,
    exchange_antiauto,
    gamma_pm,
    hamiltonian_H,
    m_squared,
    pfaffian_sum,
    rho,
)
from .coxeter import (
    GroupElement,
    MultiplicityMap,
    RootSystem,
    build_root_system,
    invariant_sum_S,
    load_root_system,
    s_pair,
)
from .exactmath import (
    CoeffPoly,
    LocPoly,
    NotDivisible,
    XPoly,
    poly_divide_exact,
)
from .expr import evaluate, parse_expression, print_expression
from .polyrep import DunklContext, apply_element, dunkl_apply, nabla_apply, restrict_check, verify_hamiltonian_identity
from .subalgebra import (
    SubElement,
    SubWord,
    centralizer,
    pbw_rank_check,
)

__version__ = "0.1.0"
