"""Output checks. Each failed check counts one failed operation."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Encodings are power- and L2-normalized, so their norm is 1 up to rounding.
NORM_TOL = 1e-9

# Probe tolerance, as the largest absolute difference on a unit-norm vector.
# Summing the same terms in another order (chunked, GEMM-form or threaded
# reductions over T=1500 points) moves entries by about 1e-13 on this data,
# which stays inside (-1, 1) and near its mixture; a wrong kernel (a dropped
# term, a wrong variance power, a misplaced block) moves them by 1e-3 or
# more. 1e-9 sits between the two with a wide margin on both sides.
PROBE_TOL = 1e-9

# The probe: a fixed image encoded with a fixed, unfitted checkpoint.
# T exceeds 1024, the row chunk the backward streams over, so an encoder
# chunked the same way is checked across a seam.
PROBE = dict(n_points=1500, dim=8, n_components=4, seed=7)

# Held-out AP is a rank statistic and deterministic for a seed. It is
# compared, against the stored reference and against an AP recomputed from
# the same encodings, exactly up to float formatting.
MAP_TOL = 1e-12


def encoding_ok(encoding) -> bool:
    """Finite and of unit L2 norm."""
    encoding = np.asarray(encoding, dtype=np.float64)
    return bool(
        encoding.ndim == 1
        and np.all(np.isfinite(encoding))
        and abs(float(np.linalg.norm(encoding)) - 1.0) <= NORM_TOL
    )


def probe_matches(encoding, reference) -> bool:
    encoding = np.asarray(encoding, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    return bool(
        encoding.shape == reference.shape
        and np.all(np.isfinite(encoding))
        and float(np.max(np.abs(encoding - reference))) <= PROBE_TOL
    )


def average_precision(scores, labels) -> float:
    """Mean precision at each positive's rank; ties broken by index.

    Written out here, apart from the program's own, so that the AP reported
    by `evaluate_checkpoint` is checked against an independent computation.
    """
    scores = np.asarray(scores, dtype=np.float64)
    hits = np.asarray(labels)[np.argsort(-scores, kind="stable")] > 0
    precision = np.cumsum(hits) / np.arange(1, hits.size + 1)
    return float(precision[hits].mean())


def heldout_map_from_encodings(encodings, thetas, labels) -> float:
    """Mean over classes of the AP of linear scores theta^T [v; 1]."""
    encodings = np.asarray(encodings, dtype=np.float64)
    aps = [
        average_precision(encodings @ theta[:-1] + theta[-1], labels[:, c])
        for c, theta in enumerate(np.asarray(thetas))
    ]
    return float(np.mean(aps))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def map_matches(value: float, workload: str, seed: int, reference: dict):
    """True/False against the stored reference; None when none is stored."""
    stored = reference.get("heldout_map", {}).get(workload, {}).get(str(seed))
    if stored is None:
        return None
    return abs(value - stored) <= MAP_TOL
