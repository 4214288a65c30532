"""Track-to-detection association helpers.

The Kalman-filter baseline and the evaluation harness both need to assign
detections (region proposals or tracker boxes) to existing tracks or
ground-truth boxes.  Two strategies are provided:

* :func:`greedy_overlap_assignment` — repeatedly pick the highest-scoring
  remaining pair; cheap and what an embedded implementation would use.
* :func:`iou_assignment` — optimal one-to-one assignment maximising total
  IoU via scipy's Hungarian solver, used by the evaluation where optimality
  matters more than cost.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.utils.geometry import BoundingBox, boxes_iou

#: Pairs whose IoU falls below this are not matched by :func:`iou_assignment`:
#: a zero-overlap pair is no match, however the solver placed it.
MIN_IOU = 1e-9


def overlap_score_matrix(
    tracks: Sequence[BoundingBox], detections: Sequence[BoundingBox]
) -> np.ndarray:
    """Pairwise IoU matrix, ``shape = (len(tracks), len(detections))``."""
    matrix = np.zeros((len(tracks), len(detections)))
    for i, track_box in enumerate(tracks):
        for j, detection_box in enumerate(detections):
            matrix[i, j] = boxes_iou(track_box, detection_box)
    return matrix


def greedy_overlap_assignment(
    tracks: Sequence[BoundingBox],
    detections: Sequence[BoundingBox],
    min_score: float = 1e-9,
) -> List[Tuple[int, int]]:
    """Greedy one-to-one assignment by descending IoU.

    Returns
    -------
    list of (track_index, detection_index)
        Matched pairs with IoU >= ``min_score``.
    """
    if not tracks or not detections:
        return []
    matrix = overlap_score_matrix(tracks, detections)
    pairs: List[Tuple[int, int]] = []
    used_tracks: set = set()
    used_detections: set = set()
    order = np.argsort(matrix, axis=None)[::-1]
    for flat_index in order:
        i, j = np.unravel_index(flat_index, matrix.shape)
        if matrix[i, j] < min_score:
            break
        if i in used_tracks or j in used_detections:
            continue
        pairs.append((int(i), int(j)))
        used_tracks.add(int(i))
        used_detections.add(int(j))
    return pairs


def iou_assignment(
    tracks: Sequence[BoundingBox], detections: Sequence[BoundingBox]
) -> List[Tuple[int, int, float]]:
    """Optimal one-to-one assignment maximising total IoU.

    Returns
    -------
    list of (track_index, detection_index, iou)
        Assigned pairs with IoU >= :data:`MIN_IOU`, each with the IoU the
        solver was given.
    """
    if not tracks or not detections:
        return []
    matrix = overlap_score_matrix(tracks, detections)
    row_indices, col_indices = linear_sum_assignment(-matrix)
    scores = matrix[row_indices, col_indices].tolist()
    return [
        (int(i), int(j), iou)
        for i, j, iou in zip(row_indices, col_indices, scores)
        if iou >= MIN_IOU
    ]


def unmatched_indices(
    total: int, matched: Sequence[Tuple[int, int]], position: int
) -> List[int]:
    """Indices in ``range(total)`` that do not appear in ``matched``.

    ``position`` selects which element of the pairs to look at (0 for track
    indices, 1 for detection indices).
    """
    used = {pair[position] for pair in matched}
    return [index for index in range(total) if index not in used]
