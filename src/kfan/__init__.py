"""Exact computation of wall-congruence K-rings on fans.

Tuples of Laurent polynomials over the maximal cones of a fan, congruent
across walls modulo (1 - e^chi): membership checks, certified
filtration-adapted bases and the ordinary K-ring rank they count, monomial
presentations for smooth fans, and the extension of the same machinery to
bundles over cellular toric bases and to toroidal horospherical embeddings,
whose ranks are box-stabilized estimates.
"""

from .baserings import (
    BaseRing,
    CharRemap,
    FlagBase,
    PointBase,
    ToricBase,
    TrivialBase,
    base_from_obj,
    flag_rank_probe,
    simple_reflection,
    weyl_group_order,
    weyl_orbit,
)
from .bundle import (
    ExtendedElement,
    bundle_presentation,
    diagonal,
    extended_box_rank,
    extended_check,
    extended_from_obj,
    extended_member_space,
    extended_relation_image,
    extended_to_obj,
    hirzebruch_crosscheck,
    hirzebruch_fiber_base,
    kunneth_realize,
    kunneth_surjectivity_probe,
    line_hom,
)
from .catalog import acceptance_fans, f1, hirzebruch, p1, p1xp1, p112, p2, quadrant
from .cellular import (
    CellularityReport,
    cell_dims,
    cell_order,
    cells,
    check_cellular,
    distinguished_face,
    is_generic,
    search_generic,
)
from .fan import (
    Cone,
    Fan,
    Wall,
    all_cones,
    fan_to_json,
    is_complete,
    parse_fan,
    validate_fan,
    walls,
)
from .horo import (
    HorosphericalDatum,
    datum_from_obj,
    datum_to_obj,
    horo_rank,
    k_horospherical,
    sl2_basic_datum,
    sl3_datum,
    validate_horo,
)
from .intlat import (
    IntMatrix,
    hermite_normal_form,
    invariant_factors,
    smith_normal_form,
    solve_integer,
)
from .kring import (
    CertifiedRank,
    FiltrationBasis,
    GkmElement,
    MemberSpace,
    RankReport,
    SRPresentation,
    build_filtration_basis,
    constant_embedding,
    decompose,
    element_from_obj,
    element_to_obj,
    gkm_check,
    member_space,
    minimal_nonfaces,
    ordinary_k_rank,
    plp_check,
    sample_members,
    sr_presentation,
    sr_surjectivity_probe,
    verify_generation,
)
from .laurent import LaurentPoly, box_points, divides, euler_class

__all__ = [name for name in dir() if not name.startswith("_")]
