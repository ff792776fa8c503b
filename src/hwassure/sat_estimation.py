"""Attack-time estimation from measured runs.

Attack cost as a function of scan compression is summarized per design by
a quadratic in CR over the time multiplier m(CR) = time(CR) / time(CR=1).
A library of such submodels, curated for feature diversity, estimates the
platform-level attack time of an unseen design: pick the submodel whose
interface metadata is most similar, evaluate its quadratic at the target
CR, and scale the known IP-level attack time by the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .netlist import CircuitMetadata
from .tables import csv_rows

# dataset column -> how its cells read
_DATASET_COLUMNS = {
    "name": str, "key_length": int, "num_gates": int, "num_pi": int, "num_po": int,
    "num_ffio": int, "cr": float, "elapsed_s": float, "iterations": int,
}
DATASET_CSV_HEADER = ",".join(_DATASET_COLUMNS)

# multipliers below this are nonphysical fit artifacts; estimates are floored
MULTIPLIER_FLOOR = 0.01


@dataclass(frozen=True)
class ExperimentRecord:
    metadata: CircuitMetadata
    cr: float
    elapsed_seconds: float
    iterations: int

    def __post_init__(self):
        if self.cr < 1:
            raise ValueError("compression ratio must be >= 1")
        if self.elapsed_seconds <= 0:
            raise ValueError("elapsed time must be positive")


@dataclass(frozen=True)
class SubModel:
    metadata: CircuitMetadata
    coefficients: Tuple[float, float, float]

    def multiplier(self, cr: float) -> float:
        a0, a1, a2 = self.coefficients
        return a0 + a1 * cr + a2 * cr * cr


@dataclass(frozen=True)
class EstimationModel:
    sub_models: Tuple[SubModel, ...]
    feature_scales: Tuple[float, float, float, float, float]

    def __post_init__(self):
        if not self.sub_models:
            raise ValueError("model needs at least one submodel")
        if any(s <= 0 for s in self.feature_scales):
            raise ValueError("feature scales must be strictly positive")


def fit_quadratic(points: Sequence[Tuple[float, float]]) -> Tuple[float, float, float]:
    """Least-squares a0 + a1*cr + a2*cr^2 through (cr, multiplier) points."""
    if len({cr for cr, _ in points}) < 3:
        raise ValueError("need at least 3 distinct compression ratios")
    crs = np.array([cr for cr, _ in points], dtype=np.float64)
    ys = np.array([y for _, y in points], dtype=np.float64)
    design = np.column_stack([np.ones_like(crs), crs, crs * crs])
    coeffs, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    return (float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))


def cosine_similarity(u: Sequence[float], v: Sequence[float]) -> float:
    if len(u) != len(v):
        raise ValueError("vectors must have equal dimension")
    ua = np.asarray(u, dtype=np.float64)
    va = np.asarray(v, dtype=np.float64)
    nu = math.sqrt(float(ua @ ua))
    nv = math.sqrt(float(va @ va))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return min(1.0, max(0.0, float(ua @ va) / (nu * nv)))


def feature_vector(md: CircuitMetadata) -> Tuple[float, float, float, float, float]:
    return (
        float(md.key_length),
        float(md.num_gates),
        float(md.num_primary_inputs),
        float(md.num_primary_outputs),
        float(md.num_flip_flop_io),
    )


def nearest_neighbour(
    query: Sequence[float],
    query_gates: int,
    candidates: Sequence[Tuple[Sequence[float], int]],
    scales: Sequence[float],
) -> int:
    """Index of the ``(features, gate count)`` candidate most similar to the query.

    Similarity is the cosine over features divided by ``scales``. Ties break
    toward the closest gate count, then the lowest index, so the choice is
    deterministic.
    """
    q = np.asarray(query, dtype=np.float64) / scales
    return min(
        range(len(candidates)),
        key=lambda i: (
            -cosine_similarity(q, np.asarray(candidates[i][0], dtype=np.float64) / scales),
            abs(candidates[i][1] - query_gates),
            i,
        ),
    )


def select_submodel(model: EstimationModel, metadata: CircuitMetadata) -> SubModel:
    """Most-similar submodel by cosine over scaled interface features
    (:func:`nearest_neighbour`)."""
    index = nearest_neighbour(
        feature_vector(metadata),
        metadata.num_gates,
        [(feature_vector(s.metadata), s.metadata.num_gates) for s in model.sub_models],
        model.feature_scales,
    )
    return model.sub_models[index]


def estimate_attack_time(
    model: EstimationModel,
    metadata: CircuitMetadata,
    cr: float,
    ip_level_seconds: float,
) -> float:
    """Scale a known IP-level attack time to the platform-level estimate."""
    if cr < 1:
        raise ValueError("compression ratio must be >= 1")
    if ip_level_seconds <= 0:
        raise ValueError("IP-level attack time must be positive")
    sub = select_submodel(model, metadata)
    return ip_level_seconds * max(sub.multiplier(cr), MULTIPLIER_FLOOR)


def _group_key(md: CircuitMetadata) -> Tuple:
    return (md.name,) + feature_vector(md)


def submodel_from_records(records: Sequence[ExperimentRecord]) -> SubModel:
    """Fit one design's multiplier curve; records must share metadata.

    Multiple measurements at the same CR average before normalization by
    the CR=1 time.
    """
    if not records:
        raise ValueError("no records")
    md = records[0].metadata
    by_cr: Dict[float, List[float]] = {}
    for rec in records:
        if rec.metadata != md:
            raise ValueError("records span multiple designs")
        by_cr.setdefault(rec.cr, []).append(rec.elapsed_seconds)
    if 1 not in by_cr:
        raise ValueError("need a CR=1 baseline measurement")
    means = {cr: sum(v) / len(v) for cr, v in by_cr.items()}
    base = means[1]
    points = sorted((cr, t / base) for cr, t in means.items())
    return SubModel(md, fit_quadratic(points))


def _farthest_point_order(vectors: np.ndarray) -> List[int]:
    """Greedy max-min ordering; starts farthest from the centroid.

    Ties resolve to the lowest index; chosen points are masked out so
    duplicates never repeat.
    """
    n = len(vectors)
    centroid = vectors.mean(axis=0)
    first = int(np.argmax(np.linalg.norm(vectors - centroid, axis=1)))
    order = [first]
    dists = np.linalg.norm(vectors - vectors[first], axis=1)
    dists[first] = -np.inf
    for _ in range(n - 1):
        nxt = int(np.argmax(dists))
        order.append(nxt)
        dists = np.minimum(dists, np.linalg.norm(vectors - vectors[nxt], axis=1))
        dists[nxt] = -np.inf
    return order


def build_model(
    records: Iterable[ExperimentRecord], max_submodels: int = 20
) -> EstimationModel:
    """Group records per design, fit submodels, and curate for diversity.

    When more designs are available than ``max_submodels``, a greedy
    farthest-point pass over the scaled feature space keeps the most
    spread-out subset, which preserves coverage of the interface-metadata
    range rather than clustering on near-duplicates.
    """
    groups: Dict[Tuple, List[ExperimentRecord]] = {}
    for rec in records:
        groups.setdefault(_group_key(rec.metadata), []).append(rec)
    candidates = [submodel_from_records(g) for g in groups.values()]
    if not candidates:
        raise ValueError("no complete design groups in the dataset")
    features = np.array([feature_vector(s.metadata) for s in candidates])
    scales = tuple(float(c) if c > 0 else 1.0 for c in features.max(axis=0))
    if len(candidates) > max_submodels:
        scaled = features / np.asarray(scales)
        order = _farthest_point_order(scaled)[:max_submodels]
        candidates = [candidates[i] for i in sorted(order)]
    return EstimationModel(tuple(candidates), scales)


# -- dataset and model files ---------------------------------------------------


def metadata_to_dict(md: CircuitMetadata) -> Dict[str, object]:
    """Metadata under the dataset CSV's column names, as stored in model
    files and attack records."""
    return {
        "name": md.name,
        "key_length": md.key_length,
        "num_gates": md.num_gates,
        "num_pi": md.num_primary_inputs,
        "num_po": md.num_primary_outputs,
        "num_ffio": md.num_flip_flop_io,
    }


def metadata_from_dict(d: Mapping[str, object]) -> CircuitMetadata:
    """Inverse of ``metadata_to_dict``; accepts the strings of a CSV row."""
    return CircuitMetadata(
        name=str(d["name"]),
        key_length=int(d["key_length"]),
        num_gates=int(d["num_gates"]),
        num_primary_inputs=int(d["num_pi"]),
        num_primary_outputs=int(d["num_po"]),
        num_flip_flop_io=int(d["num_ffio"]),
    )


def record_csv_row(rec: ExperimentRecord) -> str:
    md = rec.metadata
    cr = int(rec.cr) if float(rec.cr).is_integer() else rec.cr
    return (
        f"{md.name},{md.key_length},{md.num_gates},{md.num_primary_inputs},"
        f"{md.num_primary_outputs},{md.num_flip_flop_io},{cr},"
        f"{rec.elapsed_seconds!r},{rec.iterations}"
    )


def records_to_csv(records: Sequence[ExperimentRecord]) -> str:
    lines = [DATASET_CSV_HEADER]
    lines.extend(record_csv_row(r) for r in records)
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> List[ExperimentRecord]:
    return [
        ExperimentRecord(metadata_from_dict(row), row["cr"], row["elapsed_s"], row["iterations"])
        for row in csv_rows(text, _DATASET_COLUMNS, "dataset")
    ]


def model_to_json(model: EstimationModel) -> str:
    payload = {
        "feature_scales": list(model.feature_scales),
        "sub_models": [
            {"metadata": metadata_to_dict(s.metadata), "coefficients": list(s.coefficients)}
            for s in model.sub_models
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _numbers(value: object, field: str, count: int) -> Tuple[float, ...]:
    if not isinstance(value, list) or len(value) != count or not all(
        type(v) in (int, float) for v in value
    ):
        raise ValueError(f"model field '{field}' must be a list of {count} numbers")
    return tuple(float(v) for v in value)


def model_from_json(text: str) -> EstimationModel:
    """Inverse of ``model_to_json``. A field of the wrong shape raises
    ``ValueError`` naming the field."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("model must be a JSON object")
    entries = payload.get("sub_models")
    if not isinstance(entries, list) or not all(isinstance(s, dict) for s in entries):
        raise ValueError("model field 'sub_models' must be a list of objects")
    subs = []
    for i, s in enumerate(entries):
        field = f"sub_models[{i}]"
        try:
            metadata = metadata_from_dict(s["metadata"])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"model field '{field}.metadata' is malformed") from None
        coefficients = _numbers(s.get("coefficients"), f"{field}.coefficients", 3)
        subs.append(SubModel(metadata, coefficients))
    scales = _numbers(payload.get("feature_scales"), "feature_scales", 5)
    return EstimationModel(tuple(subs), scales)


def save_model(model: EstimationModel, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(model_to_json(model))


def load_model(path: str) -> EstimationModel:
    with open(path) as fh:
        return model_from_json(fh.read())
