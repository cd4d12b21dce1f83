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
evaluation order or parallel scheduling. The key is the 16-byte blake2s
digest of (seed, stream_id, NUL, frequency), read big-endian; the hash of
the (seed, stream_id, NUL) prefix is taken once per call and copied for
each frequency. One Philox generator per call is re-keyed for each
frequency: the two key words are written into one state dict of counter 0
and an empty buffer, which is exactly the state a Philox built with that
key starts in, without the cost of building one (and the entropy it seeds
itself with before the key replaces it) per frequency. The dict holds
Python lists, whose elements numpy's state setter reads without building
numpy scalars. The normals are written in place into one preallocated block.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

_BLOCK_NORMALS = 2**14  # normals drawn at once; bounds the temporaries
_WORD = 2**64 - 1  # a Philox key is two little-endian 64-bit words


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


def _prefix(seed: int, stream_id: str):
    """The blake2s state after (seed, stream_id, NUL), shared by every key of a stream."""
    return hashlib.blake2s(
        struct.pack(">q", int(seed)) + stream_id.encode("utf-8") + b"\x00", digest_size=16
    )


def _key(prefix, frequency: bytes) -> int:
    # Hash the frequency's big-endian float64 bytes after the stream's
    # prefix into a 128-bit Philox key. Keying by the frequency's bit
    # pattern makes a draw independent of where it sits in a sweep grid.
    h = prefix.copy()
    h.update(frequency)
    return int.from_bytes(h.digest(), "big")


def averaged_perturbed_stacks(stacks, frequencies, model: UncertaintyModel, stream_id: str):
    """Complex means of ``model.trials`` entrywise perturbations of (F, K, L) stacks.

    Each draw resamples every entry as A * exp(1j*phi), with A drawn around
    the nominal magnitude and phi around the nominal phase; negative
    amplitude samples are clamped to zero, biasing their entry's mean
    upward. The template ``spectra`` clamps 0.27 % of them, at 51 frequencies
    from 4.46 kHz up, where |H| at the piston's nulls is far below sigma_amp.
    Mimics averaging repeated measurements of the same setup.
    Use distinct stream ids for the design and evaluation sets so the two
    are statistically independent.

    Every stack in ``stacks`` is perturbed with the same draws: they are
    keyed by (seed, stream_id, frequency), not by the matrix or its place
    in the grid, so one keyed state per frequency serves them all. Its
    normals are consumed in a fixed order (a trials x (amplitude, phase) x
    K x L block), so trials=1 returns a single draw bit for bit and the
    first draw of a longer average is that same draw. The keyed state is a
    literal dict of Python lists, cheaper than numpy arrays for numpy's
    setter to read. The grid is worked through in blocks of about ``_BLOCK_NORMALS``
    normals, which bounds the temporaries. Zero variance returns the stacks
    themselves, for any trial count.

    So a point row of a later stack with the bits of the same point's row
    in an earlier stack has its average, and is copied from the first stack
    that holds it (zone B's 2 of 4 points of the template's moved scene).
    A one-stack call compares no rows. A stack left with one own entry (one
    point, one speaker) computes all its points: numpy would sum a lone
    entry's trials pairwise, not in order, and move its bits.

    The arithmetic is real: |H| and arg H once per stack, on its own rows,
    the draws scaled in place once per block for all stacks, then
    A * cos(phi) and A * sin(phi) summed over the trials and divided the
    way numpy divides a complex sum by trials + 0j. So each average is bit
    for bit the complex mean of A * exp(1j*phi), signed zeros of clamped
    entries included, without a complex temporary.
    """
    stacks = list(stacks)
    if model.sigma_amp_sq == model.sigma_phase_sq == 0.0:
        return stacks
    shape = (model.trials, 2, *stacks[0].shape[-2:])
    step = max(1, _BLOCK_NORMALS // math.prod(shape))
    scale = np.sqrt([model.sigma_amp_sq, model.sigma_phase_sq])[:, None, None]
    points, speakers = shape[2:]
    rows = [slice(None)] * len(stacks)  # the points each stack computes
    copies = []  # (stack, point, the earlier stack whose average it takes)
    if len(stacks) > 1:
        first = {}  # (point, its nominal row's bits) -> the first stack holding it
        for s, h in enumerate(stacks):
            source = [first.setdefault((k, h[:, k].tobytes()), s) for k in range(points)]
            own = [k for k, t in enumerate(source) if t == s]
            # a single own entry would leave the trials innermost, summed pairwise
            if len(own) < points and len(own) * speakers != 1:
                rows[s] = own
                copies += [(s, k, t) for k, t in enumerate(source) if t != s]
        del first  # the rows' bytes
    # own rows in C order, as a whole stack's, so that the trials are summed in order
    nominal = [(np.abs(h), np.angle(h))
               for h in (np.ascontiguousarray(h[:, own]) for h, own in zip(stacks, rows))]
    averaged = [np.empty_like(h, dtype=complex) for h in stacks]
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    words = [0, 0]  # the key, little-endian: low word first; counter 0, empty buffer
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": words},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    prefix = _prefix(model.seed, stream_id)
    packed = np.asarray(frequencies, dtype=">f8").tobytes()
    z = np.empty((min(step, len(frequencies)), *shape))
    inv = 1.0 / model.trials

    for start in range(0, len(frequencies), step):
        block = slice(start, start + step)
        n = min(step, len(frequencies) - start)
        for i in range(n):
            at = 8 * (start + i)
            key = _key(prefix, packed[at:at + 8])
            words[0], words[1] = key & _WORD, key >> 64
            bits.state = state
            rng.standard_normal(out=z[i])
        draws = z[:n]
        draws *= scale  # (amplitude, phase) deviations for every stack of the block
        for (mag, arg), own, out in zip(nominal, rows, averaged):
            z_own = draws if isinstance(own, slice) else draws.take(own, axis=3)  # C order
            amp = np.maximum(mag[block, None] + z_own[:, :, 0], 0.0)
            phase = arg[block, None] + z_own[:, :, 1]
            re_sum, im_sum = (amp * np.cos(phase)).sum(axis=1), (amp * np.sin(phase)).sum(axis=1)
            # numpy's complex mean divides by trials + 0j, which is this
            out.real[block, own] = (re_sum + im_sum * 0.0) * inv
            out.imag[block, own] = (im_sum - re_sum * 0.0) * inv
    for s, k, t in copies:
        averaged[s][:, k] = averaged[t][:, k]
    return averaged
