"""Conformal first-eigenvalue maximization on closed triangulated surfaces."""

from .mesh import (SURFACES, TriangleMesh, MeshError, gen_flat_torus, gen_icosphere,
                   load_mesh, mesh_from_spec, mesh_stats, save_intrinsic_json)
from .fem import (DensityField, DensityError, assemble_mass, assemble_stiffness,
                  gradient_field, random_density, uniform_density)
from .eigen import (EigenError, IndefiniteMassError, SpectralResult,
                    cluster_eigenvalues, solve_pencil)
from .frame import (FrameError, SphereFrame, harmonic_residual, recover_density,
                    select_frame)
from .maximizer import (AscentConfig, AscentTrace, ascent_step, detect_collapse,
                        maximize, project_density)
from .certify import certificate, moebius_map, yang_yau_bound

__version__ = "0.1.0"
