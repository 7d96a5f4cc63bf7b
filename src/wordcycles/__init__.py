"""Counting cycles labeled by free-group words in inverse automata.

The central quantity is the number of equivalence classes of closed paths
reading a power of a fixed word w, which never exceeds the first Betti
number of the graph.  The package also builds the associated disc
complexes and collapses them, and carries the subgroup-graph corollaries
(conjugate counting, intersections, the Strengthened Hanna Neumann
inequality on fiber products).
"""

from .words import (
    Word,
    cyclic_reduce,
    format_word,
    free_reduce,
    invert,
    is_cyclically_reduced,
    is_reduced,
    is_simple,
    parse_word,
    primitive_root,
)
from .graphs import (
    BettiReport,
    LabeledDigraph,
    betti,
    canonical_form,
    circle,
    components,
    core,
    fiber_product,
    fold,
    is_connected,
    isomorphic,
    rose,
    validate,
    wedge_of_words,
)
from .cycles import (
    WCycleClass,
    WCycleDecomposition,
    check_main_inequality,
    check_strict_inequality,
    decompose,
    oracle_counts,
)
from .complexes import (
    StaggeredPresentation,
    TwoComplex,
    build_gamma_w,
    check_equality_collapse,
    check_multiword_inequality,
    check_npi,
    collapses_to_tree,
    euler_characteristic,
    free_faces,
    is_staggered,
)
from .subgroups import (
    SubgroupGraph,
    check_conjugate_intersection,
    check_restated_inequality,
    check_shnc,
    conjugate,
    contains,
    count_conjugates_meeting,
    intersect,
    is_trivial,
    rank,
    stallings_graph,
)
from .generators import (
    TrialConfig,
    random_inverse_automaton,
    random_simple_word,
    trial_seed,
)
from .verify import SUITES, VerdictReport, run_suite

__version__ = "0.1.0"
