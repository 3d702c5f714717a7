"""clasplink: link invariants and clasp-number bounds from clasp data.

A C-complex for a link is a union of surfaces, one per component, that
intersect only in signed clasps.  This package works with the purely
combinatorial shadow of that picture: which clasps exist, their signs,
and the order each component meets them.  From those data it computes
clasp words, pairwise linking numbers, Milnor triple linking numbers,
lattice-curve areas, and exact lower and upper bounds on the minimal
number of clasps, all in exact integer arithmetic, with brute-force
oracles double-checking the closed forms at desk scale.

Every name in ``__all__`` is loaded on first use (PEP 562): ``import
clasplink`` runs none of the submodules, and ``clasplink.parse_word``
imports :mod:`clasplink.words` alone.  The command line relies on this to
load only the modules a subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names it exports
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "bound_report",
        "ceil_two_sqrt",
        "min_polyomino_perimeter",
        "three_component_lower_bound",
        "two_component_clasp_number",
    ),
    "complexes": (
        "CComplex",
        "Clasp",
        "ComplexFormatError",
        "InvalidComplexError",
        "clasp_word",
        "clasp_words",
        "generate_brn",
        "parse_complex",
        "print_complex",
        "validate",
        "with_rotated_order",
    ),
    "curves": ("LatticeCurve", "build_curve"),
    "invariants": ("TripleLinkingResult", "e_ij", "pairwise_linking", "triple_linking"),
    "oracles": (
        "CapExceededError",
        "OracleReport",
        "count_fixed_polyominoes",
        "format_reports",
        "verify_min_perimeter",
        "verify_word_length_bound",
    ),
    "words": ("ClaspWord", "WordSyntaxError", "parse_word"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
