"""Exact computations with binomial ideals and monoid congruences on N^n.

The package exports its names lazily (PEP 562): ``binomials.X`` and
``from binomials import X`` import X's home module on first use, so
importing the package loads no module and importing one module loads only
the modules it imports itself.
"""

from importlib import import_module as _import_module

# home module -> the names the package exports from it
_EXPORTS = {
    "scalars": "Scalar",
    "orders": "MonomialOrder lex grevlex elim NIL",
    "engine": "Binomial BinomialIdeal ReducedGB Term binomial monomial ideal "
              "normal_form ideal_member ideal_equals ideal_contains ideal_sum "
              "eliminate project_ideal colon colon_monomial saturation "
              "saturate_vars intersect intersect_monomial pure_part",
    "lattices": "Lattice PartialCharacter SmithForm smith_normal_form hnf "
                "kernel_basis saturations is_saturated lattice_ideal "
                "character_of is_lattice_ideal extend_character "
                "lattice_primary_decomposition lattice_intersect toric_ideal "
                "is_positive fibers quotient_index",
    "cellular": "CellularComponent cellular_component is_cellular as_cellular "
                "cellular_decompose prune",
    "mesoprimary": "Mesoprime mesoprime associated_mesoprimes is_mesoprimary "
                   "is_mesoprime is_prime cellular_radical "
                   "mesoprimary_primary_decomposition",
    "congruences": "Congruence congruence class_id related classify_element "
                   "classify_congruence maximal_ideal QuotientTable "
                   "quotient_table rees_ideal cancellative_intersect "
                   "intersection_related",
    "parsing": "table_text table_json",
    "errors": "",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split() + [module]}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # resolved on every access and never cached here, so a binding the
    # package holds cannot outlive a later rebinding in the home module
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = _import_module("." + home, __name__)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
