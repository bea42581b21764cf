"""Dyadic covers, regularity decompositions and projection energy scans
for integer point sets on the unit cube."""

from .content import (
    DyadicCover,
    optimal_cover,
    read_cover,
    write_cover,
)
from .fractals import (
    QUARTER_CANTOR,
    CantorPattern,
    gen_cantor_product,
    gen_degenerate,
    gen_random_tree_set,
    parse_generator_spec,
)
from .grid import (
    CoverTree,
    DyadicCube,
    GridPointSet,
    build_cover_tree,
    coarsen,
    covering_number,
    read_pointset,
    write_pointset,
)
from .projection import (
    ClassifiedDirection,
    DirectionRecord,
    Plane,
    RieszResult,
    ScanReport,
    classify_direction,
    coincidence_probability_exact,
    direction_scan,
    haar_sample,
    min_projection_cover,
    pair_energy,
    project_points,
    riesz_sum,
    summary_line,
    write_scan_csv,
    write_scan_report,
)
from .regularity import (
    Decomposition,
    ExtractionFailedError,
    frostman_subset,
    heavy_decompose,
    minimal_spread_constant,
    write_decomposition,
)

__version__ = "0.1.0"
