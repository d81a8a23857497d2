"""ringscope: exact invariants of finite rings and their module categories.

Computes, for a finite associative ring with identity: right ideals and
the radical, linear filters of right ideals, relative injectivity and
projectivity domains, and the injectivity/projectivity profile lattices,
each cross-validated by an independent brute-force route.
"""

from ._backend import BACKEND
from .classify import (
    classify_report,
    is_chain_ring,
    is_local,
    is_qf,
    is_semisimple_ring,
    is_super_qf,
    is_uniform_ring,
    socle_homogeneous,
    verify_suite,
)
from .errors import (
    BoundExceededError,
    InputError,
    NotALatticeError,
    RingScopeError,
    TheoremViolationError,
)
from .hom import (
    hom_group,
    is_injective,
    is_projective,
    is_quasi,
    is_relatively_injective,
    is_relatively_projective,
)
from .ideals import (
    ideals_in_radical,
    jacobson_radical,
    right_ideals,
    two_sided_ideals,
)
from .lattice import (
    FiniteLattice,
    are_isomorphic,
    build_lattice,
    lattice_product,
    structure_report,
    to_dot,
)
from .modules import (
    ModuleMap,
    RightModule,
    Submodule,
    annihilator,
    cyclic_modules_up_to_iso,
    direct_sum,
    enumerate_modules,
    factor_module,
    is_isomorphic_modules,
    quotient_module,
    radical_series,
    regular_module,
    socle,
    socle_series,
    submodules,
)
from .profile import (
    CyclicFingerprint,
    ProfileReport,
    find_witness,
    has_middle_class,
    i_profile,
    inj_fingerprint,
    is_poor,
    p_profile,
    profile,
    proj_fingerprint,
)
from .ring import (
    FiniteRing,
    matrix_ring,
    opposite_ring,
    path_algebra,
    product_ring,
    quotient_ring,
    ring_from_spec,
    table_ring,
    units,
    verify_ring_axioms,
    zmod,
)
from .torsion import (
    LinearFilter,
    all_linear_filters,
    eta_filter,
    is_linear_filter,
    sigma_contains,
    sigma_filter,
)

__version__ = "0.1.0"
