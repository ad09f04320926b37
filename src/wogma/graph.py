"""Skeleton graph construction and the multi-scale adjacency of the LFEM.

A spatial joint graph is disentangled into one 0/1 matrix per exact graph
distance (MS-G3D's multi-scale scheme). The graph convolution is defined on
a clip window: each scale is tiled across the window's tau frames and
symmetrically degree-normalised (`normalize`); tests/tiled_oracle.py builds
those tiled matrices. Every frame block of a normalised tiled matrix equals
the normalised N x N scale matrix with self-connections divided by tau, so
applying it to a window equals applying the N x N matrix to the window's
per-joint mean pose. `build_multiscale` therefore returns the N x N
matrices, and those are what the convolution consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

JOINT_COUNT = 18
NECK = 1          # 0-indexed positions of the normalisation anchors
R_HIP = 8
L_HIP = 11

JOINT_NAMES = [
    "nose", "neck", "r_shoulder", "r_elbow", "r_wrist",
    "l_shoulder", "l_elbow", "l_wrist", "r_hip", "r_knee", "r_ankle",
    "l_hip", "l_knee", "l_ankle", "r_eye", "l_eye", "r_ear", "l_ear",
]

# Undirected edges of the 18-joint skeleton, 1-indexed in JOINT_NAMES order.
SKELETON_EDGES = (
    (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (7, 8), (2, 9), (9, 10),
    (10, 11), (2, 12), (12, 13), (13, 14), (1, 15), (15, 17), (1, 16), (16, 18),
)


@dataclass(frozen=True)
class SkeletonGraph:
    """Undirected joint graph with a symmetric zero-diagonal 0/1 adjacency."""

    joint_count: int
    edges: tuple[tuple[int, int], ...]   # 1-indexed pairs as given
    adjacency: np.ndarray                # (N, N) float64


def build_spatial_graph(edge_list, joint_count: int) -> SkeletonGraph:
    """Build the spatial graph from 1-indexed undirected edges."""
    adj = np.zeros((joint_count, joint_count))
    edges = []
    for i, j in edge_list:
        if not (1 <= i <= joint_count and 1 <= j <= joint_count):
            raise DataFormatError(f"edge ({i}, {j}) outside joint range 1..{joint_count}")
        if i == j:
            raise DataFormatError(f"self-loop ({i}, {j}) not allowed in the edge list")
        adj[i - 1, j - 1] = 1.0
        adj[j - 1, i - 1] = 1.0
        edges.append((i, j))
    return SkeletonGraph(joint_count=joint_count, edges=tuple(edges), adjacency=adj)


def default_skeleton() -> SkeletonGraph:
    """The 18-joint pose skeleton of SKELETON_EDGES."""
    return build_spatial_graph(SKELETON_EDGES, JOINT_COUNT)


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


def build_multiscale(graph: SkeletonGraph, scales: int) -> tuple[np.ndarray, ...]:
    """Normalised N x N matrix of each scale 0..scales, with self-connections."""
    eye = np.eye(graph.joint_count)
    return tuple(normalize(np.minimum(m + eye, 1.0))
                 for m in disentangle_multiscale(graph.adjacency, scales))
