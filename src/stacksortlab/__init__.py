"""Stack-sorting map, barred-pattern avoidance, and exact enumeration of
highly sorted permutations.

Each name below is imported from its module on first use (PEP 562), so
`import stacksortlab` loads none of its modules until a name is asked
for."""

import importlib

# module -> the names it exports here
_EXPORTS = {
    "constructions": "canonical_preimage iterated_lift xi zeta",
    "errors": "EmptyPermutationError InvalidPermutationError ParseError "
              "PreconditionError ResourceBoundError StackSortError",
    "lab": "ImageReport VerificationReport bell bell_numbers catalan "
           "characterize_membership_rule count_avoiders "
           "count_t_stack_sortable explore_open image_of_iterate "
           "load_bell_fixture verify_all verify_catalan verify_prop2 "
           "verify_theorem1 verify_theorem2 verify_thm3_count "
           "verify_west_zeilberger west_zeilberger_count",
    "patterns": "BarredOccurrence SetPartition avoids_barred_3241 "
                "barred_occurrence_involving_min callan_inverse "
                "callan_partition check_partition contains_231 "
                "descent_tops_are_lr_maxima exists_231_with_endpoints "
                "find_barred_3241 format_partition parse_partition",
    "perm": "Perm check_permutation del_min descent_tops descents "
            "format_permutation identity is_increasing is_standard "
            "lr_maxima parse_permutation standardize tail_length",
    "stacksort": "StackTrace format_trace is_t_stack_sortable stack_sort "
                 "stack_sort_iterate stack_sort_recursive trace_stack_sort",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
