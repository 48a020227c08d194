"""Mixed finite elements on anisotropic level-set trace meshes.

Extracts a conforming triangulation of a level-set surface from a background
tetrahedral mesh, solves the mixed formulation of the surface diffusion
problem on it with lowest-order H(div) elements via hybridization, and
postprocesses the scalar unknown to second order.
"""

from .geometry import Sphere
from .trace_mesh import bisect_quads, build_bulk_mesh, extract_trace_surface, mesh_stats
from .elements import AffineMap, mixed_space, triangle_rule
from .assembly import build_rhs, condense_and_assemble, solve_hybrid, solve_saddle_point
from .postprocess_errors import manufactured_sphere
