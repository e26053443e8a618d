"""Exact computations with binomial ideals and monoid congruences on N^n."""

from .scalars import Scalar
from .orders import MonomialOrder, lex, grevlex, elim
from .engine import (Binomial, BinomialIdeal, ReducedGB, Term, binomial,
                     monomial, ideal, normal_form,
                     ideal_member, ideal_equals, ideal_contains, ideal_sum,
                     eliminate, project_ideal, colon, colon_monomial,
                     saturation, saturate_vars, intersect,
                     intersect_monomial, pure_part)
from .lattices import (Lattice, PartialCharacter, SmithForm, smith_normal_form,
                       hnf, kernel_basis, saturations, is_saturated,
                       lattice_ideal, character_of, is_lattice_ideal,
                       extend_character,
                       lattice_primary_decomposition, lattice_intersect,
                       toric_ideal, is_positive, fibers, quotient_index)
from .cellular import (CellularComponent, cellular_component, is_cellular,
                       as_cellular, cellular_decompose, prune)
from .mesoprimary import (Mesoprime, mesoprime, associated_mesoprimes,
                          is_mesoprimary, is_mesoprime, is_prime,
                          cellular_radical, mesoprimary_primary_decomposition)
from .congruences import (NIL, Congruence, congruence, class_id, related,
                          classify_element, classify_congruence, maximal_ideal,
                          QuotientTable, quotient_table, rees_ideal,
                          cancellative_intersect, intersection_related)
from .parsing import table_text, table_json
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
