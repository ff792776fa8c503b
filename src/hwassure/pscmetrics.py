"""Side-channel leakage metrics over switching-activity samples.

Distributions are exact empirical mass functions over integer toggle
counts. Divergences use log base 2, so the Jensen-Shannon divergence is
bounded by 1 and directly comparable across designs. A small calibrated
threshold ladder turns a JS value into a 1..5 security score; the ladder
is an artifact default, configurable everywhere it is used, since no
standard calibration exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

KL_EPSILON = 1e-9


@dataclass(frozen=True)
class EmpiricalDistribution:
    support: Tuple[int, ...]
    probabilities: Tuple[float, ...]
    sample_count: int

    def __post_init__(self):
        if len(self.support) != len(self.probabilities):
            raise ValueError("support and probabilities must align")
        if not self.support:
            raise ValueError("empty distribution")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be sorted and distinct")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("negative probability mass")
        if abs(math.fsum(self.probabilities) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    def mass(self, value: int) -> float:
        try:
            return self.probabilities[self.support.index(value)]
        except ValueError:
            return 0.0


def build_distribution(samples: Sequence[int]) -> EmpiricalDistribution:
    """Exact empirical mass function of integer-valued samples."""
    arr = np.asarray(samples)
    if arr.size == 0:
        raise ValueError("cannot build a distribution from no samples")
    values, counts = np.unique(arr, return_counts=True)
    n = int(arr.size)
    return EmpiricalDistribution(
        tuple(int(v) for v in values),
        tuple(float(c) / n for c in counts),
        n,
    )


def _union_support(p: EmpiricalDistribution, q: EmpiricalDistribution) -> List[int]:
    return sorted(set(p.support) | set(q.support))


def kl_divergence(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Sum of p * log2(p / q~) where q~ smooths q over the union support.

    The smoothing q~ = (q + eps) / (1 + eps * |support|) keeps the result
    finite when q lacks mass somewhere p has it, while staying a proper
    distribution.
    """
    support = _union_support(p, q)
    scale = 1.0 + KL_EPSILON * len(support)
    terms = []
    for s in support:
        pm = p.mass(s)
        if pm == 0.0:
            continue
        qm = (q.mass(s) + KL_EPSILON) / scale
        terms.append(pm * math.log2(pm / qm))
    return math.fsum(terms)


def js_divergence(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """0.5 KL(p||m) + 0.5 KL(q||m) with m the even mixture; lies in [0, 1].

    No smoothing: wherever p has mass, the mixture has at least half of
    it, so every term is finite.
    """
    support = _union_support(p, q)
    left = []
    right = []
    for s in support:
        pm = p.mass(s)
        qm = q.mass(s)
        m = 0.5 * (pm + qm)
        if pm > 0.0:
            left.append(pm * math.log2(pm / m))
        if qm > 0.0:
            right.append(qm * math.log2(qm / m))
    value = 0.5 * math.fsum(left) + 0.5 * math.fsum(right)
    return min(1.0, max(0.0, value))


def tvla(fixed_samples: Sequence[float], random_samples: Sequence[float]) -> float:
    """Welch's t statistic between the fixed and random trace sets."""
    f = np.asarray(fixed_samples, dtype=np.float64)
    r = np.asarray(random_samples, dtype=np.float64)
    if f.size < 2 or r.size < 2:
        raise ValueError("each set needs at least two samples")
    var_f = float(f.var(ddof=1))
    var_r = float(r.var(ddof=1))
    denom_sq = var_r / r.size + var_f / f.size
    if denom_sq == 0.0:
        raise ValueError("both sets are constant; the statistic is undefined")
    return (float(r.mean()) - float(f.mean())) / math.sqrt(denom_sq)


def snr(signal_samples: Sequence[float], noise_samples: Sequence[float]) -> float:
    """Ratio of population variances."""
    s = np.asarray(signal_samples, dtype=np.float64)
    n = np.asarray(noise_samples, dtype=np.float64)
    noise_var = float(n.var())
    if noise_var == 0.0:
        raise ValueError("noise variance is zero")
    return float(s.var()) / noise_var


@dataclass(frozen=True)
class ScoreThresholds:
    """Descending JS cut points; scores 1..5 from least to most secure.

    js >= cuts[0] scores 1, then each lower band adds one point, and
    js < cuts[3] scores 5. Boundaries belong to the lower score.
    """

    cuts: Tuple[float, float, float, float] = (0.30, 0.20, 0.12, 0.05)

    def __post_init__(self):
        if len(self.cuts) != 4:
            raise ValueError("exactly four cut points required")
        if any(not 0 < c < 1 for c in self.cuts):
            raise ValueError("cut points must lie in (0, 1)")
        if any(b >= a for a, b in zip(self.cuts, self.cuts[1:])):
            raise ValueError("cut points must strictly decrease")


DEFAULT_THRESHOLDS = ScoreThresholds()


def security_score(js: float, thresholds: ScoreThresholds = DEFAULT_THRESHOLDS) -> int:
    if not 0 <= js <= 1:
        raise ValueError("JS divergence lies in [0, 1]")
    for score, cut in zip((1, 2, 3, 4), thresholds.cuts):
        if js >= cut:
            return score
    return 5


def compare_profiles(
    samples_a: Sequence[int],
    samples_b: Sequence[int],
    bin_width: Optional[int] = None,
) -> float:
    """JS divergence between two sample sets after common binning.

    Raw integer toggle distributions have near-disjoint empirical
    supports at practical sample sizes, which pins JS at 1 regardless of
    how close the underlying distributions are. Quantizing both sets
    with one grid (width ~ pooled sigma / 4, anchored at the pooled
    minimum so the measure is shift-invariant) makes sample-level JS
    track distributional distance.
    """
    a = np.asarray(samples_a, dtype=np.int64)
    b = np.asarray(samples_b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        raise ValueError("cannot compare empty sample sets")
    pooled = np.concatenate([a, b])
    if bin_width is None:
        bin_width = max(1, round(float(pooled.std()) / 4))
    if bin_width < 1:
        raise ValueError("bin width must be at least 1")
    anchor = int(pooled.min())
    return js_divergence(
        build_distribution((a - anchor) // bin_width),
        build_distribution((b - anchor) // bin_width),
    )


def per_cycle_js_matrix(
    blocks_a: Mapping[str, Sequence[int]],
    blocks_b: Mapping[str, Sequence[int]],
    cycles_per_encryption: int,
) -> Dict[str, List[float]]:
    """Per-cycle JS per block between two collections of per-cycle samples.

    Inputs are flattened per-cycle sample streams (encryption-major);
    both collections must cover the same blocks.
    """
    if set(blocks_a) != set(blocks_b):
        raise ValueError("block sets differ between the two collections")
    out: Dict[str, List[float]] = {}
    for name in blocks_a:
        a = np.asarray(blocks_a[name], dtype=np.int64).reshape(-1, cycles_per_encryption)
        b = np.asarray(blocks_b[name], dtype=np.int64).reshape(-1, cycles_per_encryption)
        out[name] = [
            compare_profiles(a[:, t], b[:, t]) for t in range(cycles_per_encryption)
        ]
    return out


def js_matrix_csv(matrix: Mapping[str, Sequence[float]], block_order: Sequence[str]) -> str:
    """Rows = cycles, columns = blocks."""
    for name in block_order:
        if name not in matrix:
            raise ValueError(f"matrix lacks block {name!r}")
    cycles = {len(matrix[name]) for name in block_order}
    if len(cycles) != 1:
        raise ValueError("blocks disagree on cycle count")
    lines = ["cycle," + ",".join(block_order)]
    for t in range(cycles.pop()):
        row = [str(t)] + [f"{matrix[name][t]:.6f}" for name in block_order]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"

