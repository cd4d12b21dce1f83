"""Personal sound zone simulation toolkit.

Design pressure-matching filters for multichannel programs over a
loudspeaker array and evaluate how well two listeners are isolated from
each other's audio, in frequency spectra and in space.
"""

__version__ = "0.1.0"

from .acoustics import (
    CoincidentPointError,
    TransferMatrix,
    directivity,
    response_matrix,
    transfer_matrix,
)
from .filter_design import (
    FilterMatrix,
    IllConditionedError,
    RenderingMode,
    SystemMatrix,
    TargetMatrix,
    build_target_matrix,
    cost,
    default_beta,
    pressure_matching,
    program_channels,
    system_matrix,
)
from .metrics import (
    MetricSpectrum,
    MetricValue,
    acoustic_contrast,
    ipi,
    izi,
    third_octave_smooth,
)
from .perturbation import UncertaintyModel, averaged_perturbed
from .scene import (
    ListenerDisplacement,
    Scene,
    default_scene,
    move_listener,
)
from .spatial_analysis import (
    ContourSet,
    IpiMap,
    enclosed_area,
    extract_contours,
    ipi_map,
)

__all__ = [
    "__version__",
    "CoincidentPointError",
    "ContourSet",
    "FilterMatrix",
    "IllConditionedError",
    "IpiMap",
    "ListenerDisplacement",
    "MetricSpectrum",
    "MetricValue",
    "RenderingMode",
    "Scene",
    "SystemMatrix",
    "TargetMatrix",
    "TransferMatrix",
    "UncertaintyModel",
    "acoustic_contrast",
    "averaged_perturbed",
    "build_target_matrix",
    "cost",
    "default_beta",
    "default_scene",
    "directivity",
    "enclosed_area",
    "extract_contours",
    "ipi",
    "ipi_map",
    "izi",
    "move_listener",
    "pressure_matching",
    "program_channels",
    "response_matrix",
    "system_matrix",
    "third_octave_smooth",
    "transfer_matrix",
]
