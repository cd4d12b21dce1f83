"""Transfer function uncertainty model.

Measured transfer functions never match the nominal model exactly. This
module perturbs a nominal matrix entrywise, drawing the amplitude from
N(|H_kl|, sigma_amp_sq) and the phase from N(arg H_kl, sigma_phase_sq),
and averages ``trials`` independent draws the way a repeated measurement
would (one trial is a single draw); :func:`averaged_perturbed` is its one
entry point. Separate stream ids keep the set used for filter design
statistically independent from the set used for evaluation.

All draws come from a counter-based generator keyed by
(seed, stream_id, frequency), so results are reproducible regardless of
evaluation order or parallel scheduling.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .acoustics import TransferMatrix


@dataclass(frozen=True)
class UncertaintyModel:
    """Entrywise Gaussian perturbation parameters.

    ``sigma_amp_sq`` is the amplitude variance in linear units squared,
    ``sigma_phase_sq`` the phase variance in radians squared. ``trials``
    is the number of independent draws averaged by
    :func:`averaged_perturbed`. ``seed`` anchors all randomness.
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


def _draw(H: TransferMatrix, model: UncertaintyModel, stream_id: str, trials: int):
    """Stack of `trials` independent perturbed copies of H, shape (T, K, L).

    The generator is consumed in a fixed order (amplitude block then phase
    block per trial layout), so the first draw of a longer stack is bit
    identical to a single draw from the same stream.
    """
    gen = _generator(model.seed, stream_id, H.frequency)
    z = gen.standard_normal((trials, 2, *H.entries.shape))
    amp = np.abs(H.entries) + np.sqrt(model.sigma_amp_sq) * z[:, 0]
    np.clip(amp, 0.0, None, out=amp)
    phase = np.angle(H.entries) + np.sqrt(model.sigma_phase_sq) * z[:, 1]
    return amp * np.exp(1j * phase)


def averaged_perturbed(
    H: TransferMatrix, model: UncertaintyModel, stream_id: str
) -> TransferMatrix:
    """Complex entrywise mean of ``model.trials`` independent perturbations.

    Each draw resamples every entry as A * exp(1j*phi), with A drawn around
    the nominal magnitude and phi around the nominal phase; negative
    amplitude samples are clamped to zero (vanishingly rare at realistic
    variances). Mimics averaging repeated measurements of the same setup.
    Use distinct stream ids for the design and evaluation sets so the two
    are statistically independent. Deterministic given (seed, stream_id,
    frequency). trials=1 returns a single draw bit for bit; zero variance
    returns H exactly for any trial count.
    """
    if model.sigma_amp_sq == 0.0 and model.sigma_phase_sq == 0.0:
        return TransferMatrix(H.frequency, H.entries.copy())
    stack = _draw(H, model, stream_id, trials=model.trials)
    return TransferMatrix(H.frequency, stack.mean(axis=0))
