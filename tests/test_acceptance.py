"""End-to-end acceptance checks.

One test per guarantee, each printing a single PASS/FAIL line with the
measured numbers (run ``pytest tests/test_acceptance.py -s`` to see the
checklist): the single-channel metric identity, solver optimality, the
symmetric-scene IZI/IPI match, rendering-mode ordering, moved-listener
degradation, zone shrinkage with frequency, brute-force metric oracles
and bit-level determinism of the command line runs.

Sweeps reuse the reference scene at its measurement-matched
regularization (beta = K * sigma^2 = 4e-4); the zero-noise variant keeps
the same beta so the two solves are comparable.
"""

import json
import shutil
import time

import numpy as np

from pszsim.acoustics import response_matrix
from pszsim.cli import default_config_dict
from pszsim.config import log_frequency_grid
from pszsim.cli import main as cli_main
from pszsim.filter_design import RenderingMode, program_channels, solve_stack, target_stack
from pszsim.metrics import ipi_ratios, izi_ratios, min_db, smooth_db
from pszsim.perturbation import UncertaintyModel, averaged_perturbed_stacks
from pszsim.scene import ListenerDisplacement, default_scene, move_listener
from pszsim.spatial_analysis import enclosed_area, extract_contours, ipi_map
from test_filter_design import objective, solve
from test_metrics import acoustic_contrast

GRID = log_frequency_grid(100.0, 10000.0, 48)
MODEL = UncertaintyModel(sigma_amp_sq=1e-4, sigma_phase_sq=1e-4, trials=10, seed=0)
NO_NOISE = UncertaintyModel(0.0, 0.0)
BETA = 4e-4

_SWEEPS: dict = {}


def perturbed_transfers(scene, freqs, model, stream_id):
    """The scene's averaged perturbed (F, K, L) transfer stack over ``freqs``."""
    nominal = response_matrix(scene, scene.control_points, freqs)
    (stack,) = averaged_perturbed_stacks([nominal], freqs, model, stream_id)
    return stack


def design(scene, freqs, mode, model=MODEL):
    """The (F, L, channels) filters designed from the scene's design set at BETA."""
    h = perturbed_transfers(scene, freqs, model, "design")
    filters, kept, _ = solve_stack(h, target_stack(scene, h, mode), np.full(len(freqs), BETA), freqs)
    assert kept.all()
    return filters


def isolation_sweep(mode, case="centered", strategy="matched", model=MODEL,
                    use_cache=True):
    """(raw, smoothed) dB spectra over GRID per metric for one sweep combination.

    ``case`` is "centered" or "moved_a" (listener A to (-0.3, -0.2) m);
    ``strategy`` picks whether filters are designed for the evaluation
    positions ("matched") or for the centered ones ("centered").
    """
    key = (mode, case, strategy, model)
    if use_cache and key in _SWEEPS:
        return _SWEEPS[key]
    base = default_scene()
    eval_scene = base
    if case == "moved_a":
        eval_scene = move_listener(base, ListenerDisplacement("A", -0.3, -0.2))
    design_scene = eval_scene if strategy == "matched" else base
    prog_a, prog_b = program_channels(base, mode)

    m = perturbed_transfers(eval_scene, GRID, model, "eval") @ design(design_scene, GRID, mode, model)
    ratios = {
        "IZI_A": izi_ratios(m, base.zone_a, base.zone_b, prog_a),
        "IZI_B": izi_ratios(m, base.zone_b, base.zone_a, prog_b),
        "IPI_A": ipi_ratios(m, base.zone_a, prog_a, prog_b),
        "IPI_B": ipi_ratios(m, base.zone_b, prog_b, prog_a),
    }
    out = {}
    for label, (corr, uncorr) in ratios.items():
        _, raw = min_db(corr, uncorr)
        out[label] = (raw, smooth_db(GRID, raw))
    _SWEEPS[key] = out
    return out


def band_mean_db(db: np.ndarray, lo: float, hi: float) -> float:
    sel = (GRID >= lo) & (GRID <= hi)
    return float(db[sel].mean())


def report(tag: str, passed: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if passed else 'FAIL'}  {detail}")


def test_1_single_channel_izi_equals_acoustic_contrast():
    rng = np.random.default_rng(20260801)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        h = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        q = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        value, _ = min_db(*izi_ratios((h @ q)[:, None], (0, 1), (2, 3), (0,)))
        ac = acoustic_contrast(h[:2], h[2:], q)
        worst = max(worst, abs(value - ac) / ac)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(
        "[1] single-channel IZI == acoustic contrast", ok,
        f"max rel diff {worst:.3e} (tol 1e-12), {elapsed:.2f} s (limit 1 s)",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_2_pressure_matching_reaches_the_optimum():
    rng = np.random.default_rng(20260802)
    shapes = ((4, 8, 4), (8, 4, 2), (6, 6, 3))
    t0 = time.perf_counter()
    worst_residual = 0.0
    worst_margin = np.inf  # min over all perturbations of cost(C+E) - cost(C)
    for n in range(100):
        k, l_count, n_ch = shapes[n % len(shapes)]
        h = rng.standard_normal((k, l_count)) + 1j * rng.standard_normal((k, l_count))
        m_t = rng.standard_normal((k, n_ch)) + 1j * rng.standard_normal((k, n_ch))
        beta = 10.0 ** rng.uniform(-6, -1)
        c = solve(h, m_t, beta, 500.0)

        gram = h.conj().T @ h + beta * np.eye(l_count)
        rhs = h.conj().T @ m_t
        residual = np.linalg.norm(gram @ c - rhs) / np.linalg.norm(rhs)
        worst_residual = max(worst_residual, float(residual))

        c_cost = objective(h, c, m_t, beta)
        for _ in range(100):
            step = 10.0 ** rng.uniform(-6, 0)
            e = step * (
                rng.standard_normal((l_count, n_ch))
                + 1j * rng.standard_normal((l_count, n_ch))
            )
            other = objective(h, c + e, m_t, beta)
            worst_margin = min(worst_margin, other - c_cost)
    elapsed = time.perf_counter() - t0
    ok = worst_residual <= 1e-8 and worst_margin >= 0.0 and elapsed < 5.0
    report(
        "[2] pressure matching solves the normal equations", ok,
        f"max rel residual {worst_residual:.3e} (tol 1e-8), "
        f"min cost margin {worst_margin:.3e} (needs >= 0), "
        f"{elapsed:.2f} s (limit 5 s)",
    )
    assert worst_residual <= 1e-8
    assert worst_margin >= 0.0
    assert elapsed < 5.0


def test_3_symmetric_scene_gives_matching_izi_and_ipi():
    quiet = isolation_sweep(RenderingMode.MONO, model=NO_NOISE)
    max_raw = float(np.max(np.abs(quiet["IZI_A"][0] - quiet["IPI_A"][0])))

    noisy = isolation_sweep(RenderingMode.MONO)
    sel = (GRID >= 100.0) & (GRID <= 8000.0)
    smooth_diff = np.abs(noisy["IZI_A"][1] - noisy["IPI_A"][1])[sel]
    median_diff = float(np.median(smooth_diff))

    ok = max_raw <= 1e-9 and median_diff <= 1.0
    report(
        "[3] symmetric scene: IZI_A tracks IPI_A", ok,
        f"noise-free max |diff| {max_raw:.3e} dB (tol 1e-9); "
        f"noisy median smoothed |diff| {median_diff:.3f} dB (tol 1)",
    )
    assert max_raw <= 1e-9
    assert median_diff <= 1.0


def test_4_rendering_mode_ordering():
    modes = (RenderingMode.MONO, RenderingMode.STEREO, RenderingMode.XTC)
    t0 = time.perf_counter()
    sweeps = {mode: isolation_sweep(mode, use_cache=False) for mode in modes}
    elapsed = time.perf_counter() - t0

    low = {m: band_mean_db(s["IZI_A"][1], 200.0, 1000.0) for m, s in sweeps.items()}
    high = {m: band_mean_db(s["IZI_A"][1], 1000.0, 10000.0) for m, s in sweeps.items()}
    mono, stereo, xtc = (low[m] for m in modes)
    deficit_low = low[RenderingMode.MONO] - low[RenderingMode.XTC]
    deficit_high = high[RenderingMode.MONO] - high[RenderingMode.XTC]

    ok = (
        mono >= stereo >= xtc
        and deficit_low > deficit_high
        and elapsed < 30.0
    )
    report(
        "[4] mode ordering mono >= stereo >= xtc", ok,
        f"mean IZI_A 200-1000 Hz: mono {mono:.2f}, stereo {stereo:.2f}, "
        f"xtc {xtc:.2f} dB; xtc deficit below/above 1 kHz "
        f"{deficit_low:.2f}/{deficit_high:.2f} dB; "
        f"{elapsed:.1f} s (limit 30 s)",
    )
    assert mono >= stereo >= xtc
    assert deficit_low > deficit_high
    assert elapsed < 30.0


def test_5_moved_listener_loses_program_isolation_fastest():
    centered = isolation_sweep(RenderingMode.MONO)
    moved = isolation_sweep(RenderingMode.MONO, case="moved_a", strategy="centered")
    band = (200.0, 2000.0)
    drop_ipi = band_mean_db(centered["IPI_A"][1], *band) - band_mean_db(
        moved["IPI_A"][1], *band
    )
    drop_izi = band_mean_db(centered["IZI_A"][1], *band) - band_mean_db(
        moved["IZI_A"][1], *band
    )
    differential = drop_ipi - drop_izi
    ok = differential >= 6.0
    report(
        "[5] stale filters hurt IPI more than IZI", ok,
        f"IPI_A drop {drop_ipi:.2f} dB, IZI_A drop {drop_izi:.2f} dB, "
        f"differential {differential:.2f} dB (needs >= 6)",
    )
    assert differential >= 6.0


def test_6_isolation_zones_shrink_with_frequency():
    scene = default_scene()
    prog_a, prog_b = program_channels(scene, RenderingMode.MONO)
    region = (-1.0, 0.0, 0.0, 2.0)
    t0 = time.perf_counter()
    areas = []
    freqs = np.array([500.0, 1000.0, 2000.0])
    for f, c in zip(freqs, design(scene, freqs, RenderingMode.MONO)):
        m = ipi_map(scene, c, region, 0.02, f, prog_a, prog_b)
        areas.append(enclosed_area(extract_contours(m, 20.0), m))
    elapsed = time.perf_counter() - t0

    ok = areas[0] > areas[1] > areas[2] and elapsed < 60.0
    report(
        "[6] 20 dB zone area shrinks with frequency", ok,
        "areas at 0.5/1/2 kHz: "
        + "/".join(f"{a:.4f}" for a in areas)
        + f" m^2 (must strictly decrease); {elapsed:.1f} s (limit 60 s)",
    )
    assert areas[0] > areas[1] > areas[2]
    assert elapsed < 60.0


def _brute_izi(m, bright, dark, channels):
    def coherent(points):
        total = 0.0
        for k in points:
            s = 0 + 0j
            for i in channels:
                s = s + m[k][i]
            total = total + abs(s) ** 2
        return total / len(points)

    def incoherent(points):
        total = 0.0
        for k in points:
            for i in channels:
                total = total + abs(m[k][i]) ** 2
        return total / len(points)

    corr = coherent(bright) / coherent(dark)
    uncorr = incoherent(bright) / incoherent(dark)
    return corr, uncorr, min(corr, uncorr)


def _brute_ipi(m, zone, target, interferer):
    def coherent(channels):
        total = 0.0
        for k in zone:
            s = 0 + 0j
            for i in channels:
                s = s + m[k][i]
            total = total + abs(s) ** 2
        return total / len(channels)

    def incoherent(channels):
        total = 0.0
        for k in zone:
            for i in channels:
                total = total + abs(m[k][i]) ** 2
        return total / len(channels)

    corr = coherent(target) / coherent(interferer)
    uncorr = incoherent(target) / incoherent(interferer)
    return corr, uncorr, min(corr, uncorr)


def test_7_metrics_match_literal_nested_sums():
    rng = np.random.default_rng(20260807)
    worst = 0.0
    for _ in range(1000):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rows = m.tolist()

        for ratios, brute, sets in (
            (izi_ratios, _brute_izi, ((0, 1), (2, 3), (0, 1))),
            (ipi_ratios, _brute_ipi, ((0, 1), (0, 1), (2, 3))),
        ):
            corr, uncorr = ratios(m, *sets)
            value, _ = min_db(corr, uncorr)
            for a, b in zip((corr, uncorr, value), brute(rows, *sets)):
                worst = max(worst, abs(a - b) / abs(b))

    ok = worst <= 1e-12
    report(
        "[7] izi/ipi match brute-force sums", ok,
        f"max rel diff over 1000 matrices {worst:.3e} (tol 1e-12)",
    )
    assert worst <= 1e-12


def test_8_command_line_runs_are_byte_identical(tmp_path):
    cfg = default_config_dict()
    cfg["frequency_grid"]["points_per_octave"] = 8
    cfg["modes"] = ["mono"]
    cfg["map"]["frequencies_hz"] = [500.0, 1000.0]
    cfg["map"]["resolution_m"] = 0.05
    out_dir = tmp_path / "run"
    cfg["output_dir"] = str(out_dir)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))

    def run_both():
        assert cli_main(["spectra", str(config_path)]) == 0
        assert cli_main(["map", str(config_path)]) == 0
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    first = run_both()
    shutil.rmtree(out_dir)
    second = run_both()

    same_names = first.keys() == second.keys()
    diffs = [name for name in first if first[name] != second.get(name)]
    ok = same_names and not diffs
    report(
        "[8] spectra and map reruns are byte-identical", ok,
        f"{len(first)} files compared, differing: {diffs or 'none'}",
    )
    assert same_names
    assert not diffs
