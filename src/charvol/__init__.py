"""Character varieties, eigenvalue varieties and the volume differential
for orientable cusped hyperbolic 3-manifolds given by finite presentations
with peripheral data."""

__version__ = "0.1.0"

from .manifold import ManifoldSpec, SpecError, Z2CohomologyData, h1_z2, load_spec, parse_spec
from .repvar import CharacterPoint, GaugedSystem, SignTwist, enumerate_twists, find_complete
from .locus import on_U, on_V
from .eigenvar import (EliminantSet, ExtendedSystem, build_extended, eliminate,
                       gamma_act, sample_point)
from .continuation import (DeformationProblem, FillingCoefficients, FiberReport,
                           TrackedPath, fiber_over, sample_dense_set, solve_filling, track)
from .volume import (EtaValue, VolumeLabel, anchored_volume, eta_at, integrate_eta,
                     lobachevsky, loop_integral)

__all__ = [
    "ManifoldSpec", "SpecError", "Z2CohomologyData", "h1_z2", "load_spec",
    "parse_spec", "CharacterPoint", "GaugedSystem", "SignTwist",
    "enumerate_twists", "find_complete", "on_V",
    "EliminantSet", "ExtendedSystem", "build_extended", "eliminate", "gamma_act", "on_U", "sample_point", "DeformationProblem",
    "FillingCoefficients", "FiberReport", "TrackedPath", "fiber_over",
    "sample_dense_set", "solve_filling", "track", "EtaValue", "VolumeLabel",
    "anchored_volume", "eta_at", "integrate_eta", "lobachevsky", "loop_integral",
]
