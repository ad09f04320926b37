"""The skeleton's adjacency and the multi-scale adjacency of the LFEM.

The one skeleton is a constant: 18 joints and the 17 bones of
SKELETON_EDGES, whose 0/1 matrix `skeleton_adjacency` builds. It is
disentangled into one 0/1 matrix per exact graph distance (MS-G3D's
multi-scale scheme); the LFEM uses distances 0..lfem.SCALES. The graph
convolution is defined on a clip window: each scale is tiled across the
window's tau frames and symmetrically degree-normalised (`normalize`);
tests/tiled_oracle.py builds those tiled matrices. Every frame block of a
normalised tiled matrix equals the normalised N x N scale matrix with
self-connections divided by tau, so applying it to a window equals applying
the N x N matrix to the window's per-joint mean pose. `build_multiscale`
therefore returns the N x N matrices, and the LFEM's one graph layer
multiplies the mean pose by each of them as a constant.
"""

from __future__ import annotations

import numpy as np

JOINT_COUNT = 18
NECK = 1          # 0-indexed positions of the normalisation anchors
R_HIP = 8
L_HIP = 11

# Undirected edges of the 18-joint skeleton, 1-indexed in the joint order
# nose, neck, r_shoulder, r_elbow, r_wrist, l_shoulder, l_elbow, l_wrist,
# r_hip, r_knee, r_ankle, l_hip, l_knee, l_ankle, r_eye, l_eye, r_ear, l_ear.
SKELETON_EDGES = (
    (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (7, 8), (2, 9), (9, 10),
    (10, 11), (2, 12), (12, 13), (13, 14), (1, 15), (15, 17), (1, 16), (16, 18),
)


def skeleton_adjacency() -> np.ndarray:
    """The symmetric zero-diagonal (18, 18) 0/1 matrix of SKELETON_EDGES."""
    adjacency = np.zeros((JOINT_COUNT, JOINT_COUNT))
    for i, j in SKELETON_EDGES:
        adjacency[i - 1, j - 1] = adjacency[j - 1, i - 1] = 1.0
    return adjacency


def disentangle_multiscale(adjacency: np.ndarray, scales: int) -> list[np.ndarray]:
    """0/1 matrices A_0..A_M with A_m[i, j] = 1 iff graph distance(i, j) == m.

    A_0 is the identity; scales are pairwise disjoint by construction because
    each node pair has exactly one shortest-path distance.
    """
    n = adjacency.shape[0]
    reach = np.eye(n, dtype=bool)                      # nodes within distance m-1
    dist_known = np.eye(n, dtype=bool)
    mats = [np.eye(n)]
    adj_bool = adjacency > 0
    for _ in range(scales):
        reach = (reach.astype(np.int64) @ adj_bool.astype(np.int64) > 0) | reach
        fresh = reach & ~dist_known
        mats.append(fresh.astype(np.float64))
        dist_known |= fresh
    return mats


def normalize(matrix: np.ndarray) -> np.ndarray:
    """Symmetric degree normalisation D^-1/2 A D^-1/2; zero rows stay zero."""
    degree = matrix.sum(axis=1)
    inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.where(degree > 0, degree, 1.0)), 0.0)
    return matrix * inv_sqrt[:, None] * inv_sqrt[None, :]


def build_multiscale(adjacency: np.ndarray, scales: int) -> tuple[np.ndarray, ...]:
    """Normalised N x N matrix of each scale 0..scales of the (N, N) 0/1
    `adjacency`, with self-connections."""
    eye = np.eye(adjacency.shape[0])
    return tuple(normalize(np.minimum(m + eye, 1.0))
                 for m in disentangle_multiscale(adjacency, scales))
