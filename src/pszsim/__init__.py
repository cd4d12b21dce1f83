"""Personal sound zone simulation toolkit.

Design pressure-matching filters for multichannel programs over a
loudspeaker array and evaluate how well two listeners are isolated from
each other's audio, in frequency spectra and in space.
"""

__version__ = "0.1.0"

from .acoustics import directivity, response_matrix
from .filter_design import (
    RenderingMode,
    default_beta,
    program_channels,
    solve_stack,
    target_stack,
)
from .metrics import ipi_ratios, izi_ratios, min_db, smooth_db
from .perturbation import UncertaintyModel, averaged_perturbed_stacks
from .scene import (
    ListenerDisplacement,
    Scene,
    default_scene,
    move_listener,
)
from .spatial_analysis import (
    ContourSet,
    IpiMap,
    extract_contours,
    ipi_map,
)

__all__ = [
    "__version__",
    "ContourSet",
    "IpiMap",
    "ListenerDisplacement",
    "RenderingMode",
    "Scene",
    "UncertaintyModel",
    "averaged_perturbed_stacks",
    "default_beta",
    "default_scene",
    "directivity",
    "extract_contours",
    "ipi_map",
    "ipi_ratios",
    "izi_ratios",
    "min_db",
    "move_listener",
    "program_channels",
    "response_matrix",
    "smooth_db",
    "solve_stack",
    "target_stack",
]
