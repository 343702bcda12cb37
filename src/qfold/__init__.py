"""qfold: exact computations around quiver diagram automorphisms.

The package computes split-quotient quivers with their induced
automorphisms, folds Cartan matrices to automorphism-fixed subalgebras
with matrix-level relation checks, solves the associated finite-type
branching problems, and provides an exact-arithmetic laboratory for
framed preprojective modules (stability, twisted transport, transition
matrices, eigenspace profiles and inclusions).
"""

from .quiver_core import (
    Quiver,
    DiagramAutomorphism,
    OrbitData,
    quiver,
    a_quiver,
    d_quiver,
    affine_a_quiver,
    affine_d_quiver,
    automorphism,
    identity_automorphism,
    flip_automorphism,
    fork_swap_automorphism,
    check_automorphism,
    is_admissible,
    orbit_data,
)
from .split_quotient import (
    SplitData,
    SplitVertex,
    quotient_quiver,
    split_quiver,
    split_involution_check,
    project_dim,
    fibers_of_p,
    fiber_count,
    split_framing,
)
from .lie_fold import (
    CartanMatrix,
    TypeLabel,
    FoldedAlgebraData,
    cartan_matrix,
    cartan_from_quiver,
    classify_cartan,
    fold_cartan,
    folded_generators,
    serre_check,
    symmetrizer,
)
from .rep_branch import (
    RootDatum,
    root_datum,
    weyl_dim,
    freudenthal_character,
    branch,
    highest_weight_from_framing,
)
from .module_lab import (
    FramedModule,
    SigmaData,
    TransitionWitness,
    framed_module,
    check_relations,
    is_stable,
    brute_stability,
    apply_theta,
    act,
    direct_sum,
    find_transition,
    star,
    build_theta_witness,
    verify_transition,
    eigen_profile,
    check_framed_embedding,
    theorem5_verify,
    identity_sigma,
)
from .dim_calc import (
    ComponentRecord,
    dim_quiver_variety,
    dim_steinberg,
    fixed_components,
)
from .corpus import CorpusEntry, corpus, corpus_entry

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
