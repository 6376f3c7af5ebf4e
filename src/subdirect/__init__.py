"""Extensibility of homomorphisms from subdirect products of finite groups.

The library decides, for a subgroup U of a direct product G x H with
surjective projections and a cyclic coefficient group, whether every
homomorphism out of U extends to G x H.  The kernel/commutator
criterion that answers this is cross-checked everywhere against direct
enumeration of homomorphisms.
"""

from types import ModuleType as _ModuleType

from .errors import (
    FactorMismatch,
    InternalInconsistency,
    InvalidQuintuple,
    NoDiagonal,
    NotAGroup,
    NotAutomorphism,
    NotNormal,
    NotSubdirect,
    OrderLimitExceeded,
    ParseError,
    PreconditionFailed,
    SubdirectError,
)
from .extensibility import (
    build_report,
    central_inextensibility,
    cyclic_sylow_sufficient,
    is_extensible,
    is_p_extensible,
    kernel_commutator_data,
    obstruction_quotient,
    star_kernel_quotient_orders,
    star_preservation_condition,
    twisted_kernel_identity,
)
from .groups import (
    AbelianInvariants,
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelian_invariants,
    abelianization,
    all_subgroups,
    automorphisms,
    center,
    commutator_subgroup,
    find_isomorphism,
    from_cayley_table,
    from_permutation_generators,
    generating_sequence,
    has_cyclic_sylows,
    identity_hom,
    is_cyclic,
    is_isomorphic,
    is_normal,
    mutual_commutator,
    normal_subgroups,
    p_part,
    prime_factors,
    quotient_group,
    set_product,
    subgroup_generated,
    subgroup_generators,
    subgroup_quotient,
    sylow_subgroup,
)
from .homoracle import (
    CyclicHom,
    coefficient_modulus,
    enumerate_homs,
    extend_hom,
    hom_count_formula,
    oracle_is_extensible_for_modulus,
    oracle_is_p_extensible,
    raw_enumerate_homs,
    raw_oracle_is_p_extensible,
    restriction_kernel_fibers,
    restriction_kernel_image_sizes,
    restriction_map,
)
from .presets import (
    alternating,
    catalog_group,
    catalog_names,
    cyclic,
    dicyclic12,
    dihedral,
    elementary_abelian,
    identify_small_group,
    quaternion8,
    symmetric,
)
from .products import (
    GoursatQuintuple,
    ProductGroup,
    compose_relations,
    contains_twisted_diagonal,
    diagonal,
    direct_product,
    enumerate_subdirect,
    goursat_quintuple,
    goursat_quotient,
    is_section,
    is_subdirect,
    make_quintuple,
    star_product,
    subdirect_by_scan,
    subgroup_from_quintuple,
    twisted_diagonal,
)
from .records import (
    AnalysisRecord,
    analyze_subgroup,
    read_records,
    report_header,
    star_analysis,
    write_records,
)
from .verification import CheckContext, CheckResult, run_checks

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
