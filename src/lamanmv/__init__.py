"""Exact mixed-volume bounds for planar embeddings of rigid frameworks.

The library decides the Laman property, builds the distance and
substituted polynomial systems of a framework, computes mixed volumes of
their Newton polytopes with exact rational arithmetic and certified
mixed cells, and enumerates real embeddings of degree-2-constructible
frameworks to show when the bounds are attained.
"""

from .embeddings import Embedding, enumerate_h1, tight_lengths
from .errors import (
    CapabilityError,
    DegenerateInputError,
    InputError,
    InternalError,
    LamanMVError,
    NonGenericLiftingError,
    NoSequenceError,
    SequenceError,
)
from .graphs import (
    HENNEBERG_I,
    HENNEBERG_II,
    Framework,
    Graph,
    HennebergDecomposition,
    HennebergSequence,
    Orientation,
    StepI,
    StepII,
    all_laman_graphs,
    check_laman,
    classify,
    desargues_graph,
    h1_decomposition,
    henneberg_apply,
    henneberg_decompose,
    k33_graph,
    orient_two_in,
    random_henneberg_sequence,
    relabel_with_base,
    triangle,
)
from .linprog import LPOutcome, feasible
from .mixedvol import (
    MixedCellRecord,
    MVResult,
    certify_general_bound,
    enumerate_mixed_cells,
    is_mixed_cell,
    mixed_volume,
    mv_for_graph,
    mv_inclusion_exclusion,
    random_lifting,
)
from .polysys import (
    FORM_SOE,
    FORM_SUBSOE,
    Polynomial,
    PolySystem,
    bezout,
    build_soe,
    build_subsoe,
    newton_polytopes,
    witness_check,
)
from .polytopes import (
    RationalPolytope,
    edge_matrix_det,
    is_edge,
    minkowski_sum,
    volume_exact,
)
from .reporting import borcea_streinu_bound, build_report, parse_graph_file
from .separation import separation_split

__version__ = "0.1.0"
