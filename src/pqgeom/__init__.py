"""Split-quaternion linear algebra, neutral-signature curvature
decompositions, the projective-space model, and two moment-map
reductions, with exact rational arithmetic as the ground truth and a
verification CLI (`pqgeom` or `python -m pqgeom`)."""

from .algebra import NullQuaternionError, SplitQuaternion, scalar_product
from .linalg import (DegenerateStructureError, HermitianStructure, PQMatrix,
                     PQVector, RankMismatchError, adopted_basis,
                     grassman_split, module_scalar_product, real_rep,
                     sp_membership, structure_endos)
from .forms import (BilinearForm, FourForm, NotInGroupError, NotSkewError,
                    fundamental_four_form, hermitian_projector,
                    rotate_structure, two_form)
from .curvature import (CurvatureTensor, NotSymmetricPairError,
                        NullDirectionError, SymmetricDecomposition,
                        bianchi_residual, curvature_from_bilinear,
                        einstein_check, jacobi_spectrum_report,
                        normalizes_structure, projective_curvature,
                        ricci_split, symmetric_space_curvature)
from .projspace import (CompletionFailureError, DegenerateOrbitError,
                        NullLineError, SpherePoint, TangentLineError,
                        induced_geometry, transitive_element)
from .reduction import (DegenerateLevelSetError, NonRegularError,
                        NullOrbitError, flat_moment_gradient_check,
                        flat_reduced_structure, reduced_jacobi,
                        weighted_level_value)
from .workers import map_units
from .cli import CheckReport, emit_report, run_suite

__version__ = "0.1.0"
