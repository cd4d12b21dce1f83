"""Transfer function uncertainty model.

Measured transfer functions never match the nominal model exactly. This
module perturbs a nominal matrix entrywise, drawing the amplitude from
N(|H_kl|, sigma_amp_sq) and the phase from N(arg H_kl, sigma_phase_sq),
and averages ``trials`` independent draws the way a repeated measurement
would (one trial is a single draw). :func:`averaged_perturbed_stacks` does
this for whole (F, K, L) frequency stacks; a one-element stack perturbs
one matrix. Separate stream ids keep the set used for filter design
statistically independent from the set used for evaluation.

All draws come from a counter-based generator keyed by
(seed, stream_id, frequency), so results are reproducible regardless of
evaluation order or parallel scheduling.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

_BLOCK_NORMALS = 2**14  # normals drawn at once; bounds the temporaries


@dataclass(frozen=True)
class UncertaintyModel:
    """Entrywise Gaussian perturbation parameters.

    ``sigma_amp_sq`` is the amplitude variance in linear units squared,
    ``sigma_phase_sq`` the phase variance in radians squared. ``trials``
    is the number of independent draws averaged by
    :func:`averaged_perturbed_stacks`. ``seed`` anchors all randomness.
    """

    sigma_amp_sq: float
    sigma_phase_sq: float
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.sigma_amp_sq < 0:
            raise ValueError(f"sigma_amp_sq must be >= 0, got {self.sigma_amp_sq}")
        if self.sigma_phase_sq < 0:
            raise ValueError(f"sigma_phase_sq must be >= 0, got {self.sigma_phase_sq}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


def _generator(seed: int, stream_id: str, frequency: float) -> np.random.Generator:
    # Hash (seed, stream, frequency value) into a 128-bit Philox key. Keying
    # by the frequency's bit pattern makes a draw independent of where the
    # frequency sits in a sweep grid.
    h = hashlib.blake2s(digest_size=16)
    h.update(struct.pack(">q", int(seed)))
    h.update(stream_id.encode("utf-8"))
    h.update(b"\x00")
    h.update(struct.pack(">d", float(frequency)))
    key = int.from_bytes(h.digest(), "big")
    return np.random.Generator(np.random.Philox(key=key))


def averaged_perturbed_stacks(stacks, frequencies, model: UncertaintyModel, stream_id: str):
    """Complex means of ``model.trials`` entrywise perturbations of (F, K, L) stacks.

    Each draw resamples every entry as A * exp(1j*phi), with A drawn around
    the nominal magnitude and phi around the nominal phase; negative
    amplitude samples are clamped to zero (vanishingly rare at realistic
    variances). Mimics averaging repeated measurements of the same setup.
    Use distinct stream ids for the design and evaluation sets so the two
    are statistically independent.

    Every stack in ``stacks`` is perturbed with the same draws: they are
    keyed by (seed, stream_id, frequency), not by the matrix or its place
    in the grid, so one generator per frequency serves them all. Its
    normals are consumed in a fixed order (a trials x (amplitude, phase) x
    K x L block), so trials=1 returns a single draw bit for bit and the
    first draw of a longer average is that same draw. The grid is worked
    through in blocks of about ``_BLOCK_NORMALS`` normals, which bounds the
    temporaries. Zero variance returns the stacks themselves, for any
    trial count.
    """
    stacks = list(stacks)
    if model.sigma_amp_sq == model.sigma_phase_sq == 0.0:
        return stacks
    shape = (model.trials, 2, *stacks[0].shape[-2:])
    step = max(1, _BLOCK_NORMALS // math.prod(shape))
    amp_sd, phase_sd = np.sqrt(model.sigma_amp_sq), np.sqrt(model.sigma_phase_sq)
    averaged = [np.empty_like(h, dtype=complex) for h in stacks]
    for start in range(0, len(frequencies), step):
        block = slice(start, start + step)
        z = np.stack(
            [_generator(model.seed, stream_id, f).standard_normal(shape) for f in frequencies[block]]
        )
        for h, out in zip(stacks, averaged):
            h = h[block, None]  # the trials axis
            amp = np.abs(h) + amp_sd * z[:, :, 0]
            np.clip(amp, 0.0, None, out=amp)
            phase = np.angle(h) + phase_sd * z[:, :, 1]
            out[block] = (amp * np.exp(1j * phase)).mean(axis=1)
    return averaged

