"""Stack-sorting map, barred-pattern avoidance, and exact enumeration of
highly sorted permutations."""

from .constructions import canonical_preimage, iterated_lift, xi, zeta
from .errors import (EmptyPermutationError, InvalidPermutationError,
                     ParseError, PreconditionError, ResourceBoundError,
                     StackSortError)
from .lab import (ImageReport, VerificationReport, bell, bell_numbers,
                  catalan, characterize_membership_rule, count_avoiders,
                  count_t_stack_sortable, explore_open, image_of_iterate,
                  load_bell_fixture, verify_all, verify_catalan, verify_prop2,
                  verify_theorem1, verify_theorem2, verify_thm3_count,
                  verify_west_zeilberger, west_zeilberger_count)
from .patterns import (BarredOccurrence, SetPartition,
                       avoids_barred_3241, barred_occurrence_involving_min,
                       callan_inverse, callan_partition, check_partition,
                       contains_231, descent_tops_are_lr_maxima,
                       exists_231_with_endpoints, find_barred_3241,
                       format_partition, parse_partition)
from .perm import (Perm, check_permutation, del_min, descent_tops, descents,
                   format_permutation, identity, is_increasing, is_standard,
                   lr_maxima, parse_permutation, standardize, tail_length)
from .stacksort import (StackTrace, format_trace, is_t_stack_sortable,
                        stack_sort, stack_sort_iterate, stack_sort_recursive,
                        trace_stack_sort)

__version__ = "0.1.0"
