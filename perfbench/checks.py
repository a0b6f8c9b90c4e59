"""Output checks of the echokit benchmark.

Each check returns a list of problems; an item with any problem counts as
failed.  The checks use plain numpy, never the code under test.
"""

from __future__ import annotations

import math

import numpy as np

# Offsets of the 14 Doppler channels, in the feature's channel order.
DOPPLER_OFFSETS = tuple(range(-8, -1)) + tuple(range(2, 9))
ULTRA_COLS = 14
MEL_COLS = 128
MAX_FRAME_GAP = 2
SNR_TOL_DB = 0.01
# Reference summaries must match to this relative/absolute tolerance.
REF_RTOL = 1e-6
REF_ATOL = 1e-6


def check_features(ultra: np.ndarray, mel: np.ndarray, doppler_sign: int) -> list:
    """T x 14 and T x 128, finite, frame counts within 2, and the strongest
    Doppler channel on the side of the moving reflector's Doppler sign."""
    problems = []
    for name, frames, cols in (("ultra", ultra, ULTRA_COLS), ("mel", mel, MEL_COLS)):
        if frames.ndim != 2 or frames.shape[1] != cols or frames.shape[0] < 1:
            problems.append(f"{name} feature has shape {frames.shape}, want T x {cols}")
        elif not np.all(np.isfinite(frames)):
            problems.append(f"{name} feature has non-finite values")
    if problems:
        return problems
    gap = abs(ultra.shape[0] - mel.shape[0])
    if gap > MAX_FRAME_GAP:
        problems.append(f"Mel/ultra frame gap {gap} > {MAX_FRAME_GAP}")
    energy = np.mean(10.0 ** (ultra / 10.0), axis=0)
    side = int(np.sign(DOPPLER_OFFSETS[int(np.argmax(energy))]))
    if side != doppler_sign:
        problems.append(f"strongest Doppler channel on side {side:+d}, "
                        f"moving reflector has sign {doppler_sign:+d}")
    return problems


def check_report_row(row: dict, drawn_snr_db: float) -> list:
    """One ``evaluate`` record of a mixture against its clean recording."""
    problems = []
    stoi = row.get("stoi")
    if not isinstance(stoi, (int, float)) or not 0.0 <= stoi <= 1.0:
        problems.append(f"stoi {stoi!r} outside [0, 1]")
    for key in ("lsd", "ssim"):
        val = row.get(key)
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            problems.append(f"{key} {val!r} is not finite")
    snr = row.get("snr_db")
    if not isinstance(snr, (int, float)) or abs(snr - drawn_snr_db) > SNR_TOL_DB:
        problems.append(f"measured SNR {snr!r} dB, drawn {drawn_snr_db:g} dB")
    return problems


def check_loss_batch_equal(value_3d: float, value_list: float) -> list:
    """contrastive_loss on a 3-D batch equals its value on the same list."""
    if not (math.isfinite(value_3d) and math.isfinite(value_list)):
        return [f"loss not finite: {value_3d!r} / {value_list!r}"]
    if abs(value_3d - value_list) > REF_RTOL * abs(value_list):
        return [f"3-D batch loss {value_3d!r} != list batch loss {value_list!r}"]
    return []


def check_finite(name: str, value: float) -> list:
    return [] if math.isfinite(value) else [f"{name} is not finite: {value!r}"]


def summarize(frames: np.ndarray) -> dict:
    """Shape and moments of a feature matrix, for the reference file."""
    return {"rows": int(frames.shape[0]), "cols": int(frames.shape[1]),
            "mean": float(np.mean(frames)), "std": float(np.std(frames)),
            "min": float(np.min(frames)), "max": float(np.max(frames))}


def compare_reference(got, want, path: str = "") -> list:
    """Every number in ``got`` matches ``want`` within REF_RTOL / REF_ATOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'summary'}: keys differ"]
        return [p for k in want for p in compare_reference(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare_reference(g, w, f"{path}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, (int, float)) and math.isclose(
                got, want, rel_tol=REF_RTOL, abs_tol=REF_ATOL):
            return []
        return [f"{path}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]
