"""Flippable tilings of constant curvature surfaces.

Geometry of convex polyhedra in the 3-sphere and of Fuchsian polyhedral
surfaces in anti-de Sitter space, the projections that turn them into
black/white flippable tilings, the flip itself, and a Newton solver for
prescribing the singular curvature at the vertices.

A 4-dimensional geometry is named by its star quadric (`spheremath`'s
`SPHERE_STAR`, `ADS_STAR`); `forms` holds the R^4 products over them.
"""

from .errors import (
    ConvergenceError,
    DevelopmentError,
    FlipkitError,
    GeometryError,
    SchemaError,
    SignatureMismatchError,
)
from .fuchsian import (
    FuchsianConfig,
    FuchsianGroup,
    ads_project,
    cone_angles,
    curvatures,
    genus2_group,
    jacobian,
    minkowski_dual,
    orbit_hull,
    solve_prescribed_curvature,
    sph_star_jacobian,
)
from .polyhedra import ConvexPolyhedron, SphericalPolygon, hull, polar_dual
from .tilings import (
    FlippableTiling,
    Side,
    black_metric,
    flip,
    make_antipodal_tiling,
    make_two_circles_tiling,
    project,
    recolor,
    validate_tiling,
    white_metric,
    white_polyhedron,
)

__all__ = [
    "ConvergenceError",
    "ConvexPolyhedron",
    "DevelopmentError",
    "FlipkitError",
    "FlippableTiling",
    "FuchsianConfig",
    "FuchsianGroup",
    "GeometryError",
    "SchemaError",
    "Side",
    "SignatureMismatchError",
    "SphericalPolygon",
    "ads_project",
    "black_metric",
    "cone_angles",
    "curvatures",
    "flip",
    "genus2_group",
    "hull",
    "jacobian",
    "make_antipodal_tiling",
    "make_two_circles_tiling",
    "minkowski_dual",
    "orbit_hull",
    "polar_dual",
    "project",
    "recolor",
    "solve_prescribed_curvature",
    "sph_star_jacobian",
    "validate_tiling",
    "white_metric",
    "white_polyhedron",
]

__version__ = "0.1.0"
