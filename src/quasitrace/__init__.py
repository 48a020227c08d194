"""Mixed finite elements on anisotropic level-set trace meshes.

Extracts a conforming triangulation of a level-set surface from a background
tetrahedral mesh, solves the mixed formulation of the surface diffusion
problem on it with lowest-order H(div) elements via hybridization, and
postprocesses the scalar unknown to second order.
"""

from .geometry import (
    Sphere,
    SurfaceField,
    TangentFrame,
    area_ratio,
    frame_at,
    piola_from_surface,
)
from .trace_mesh import (
    BulkMesh,
    TraceMesh,
    bisect_quads,
    build_bulk_mesh,
    extract_trace_surface,
    mesh_stats,
    write_off,
)
from .elements import (
    AffineMap,
    MixedSpace,
    mixed_space,
    triangle_rule,
)
from .assembly import (
    HybridSystem,
    SolutionFields,
    build_rhs,
    condense_and_assemble,
    solve_hybrid,
    solve_saddle_point,
)
from .postprocess_errors import (
    ErrorReport,
    ManufacturedProblem,
    compute_errors,
    eoc,
    lift_exact,
    manufactured_sphere,
    postprocess_gradient,
    postprocess_neumann,
)

__version__ = "0.1.0"
