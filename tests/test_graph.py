from collections import deque

import numpy as np
import pytest

from wogma import graph as gr
from wogma.errors import DataFormatError
from tiled_oracle import tiled_multiscale


def bfs_distances(adjacency):
    """Independent BFS oracle: matrix of shortest-path distances (-1 if unreachable)."""
    n = adjacency.shape[0]
    dist = -np.ones((n, n), dtype=int)
    for src in range(n):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if adjacency[u, v] > 0 and dist[src, v] < 0:
                    dist[src, v] = dist[src, u] + 1
                    queue.append(v)
    return dist


def random_graph(rng, n):
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                adj[i, j] = adj[j, i] = 1.0
    return adj


def test_path_graph_adjacency():
    g = gr.build_spatial_graph([(1, 2), (2, 3)], 3)
    np.testing.assert_array_equal(g.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_single_edge_graph():
    g = gr.build_spatial_graph([(1, 2)], 2)
    np.testing.assert_array_equal(g.adjacency, [[0, 1], [1, 0]])


def test_out_of_range_joint_rejected():
    with pytest.raises(DataFormatError):
        gr.build_spatial_graph([(1, 5)], 3)


def test_self_loop_rejected():
    with pytest.raises(DataFormatError):
        gr.build_spatial_graph([(2, 2)], 3)


def test_default_skeleton_17_edges_connected():
    g = gr.default_skeleton()
    assert g.joint_count == 18
    assert len(g.edges) == 17
    dist = bfs_distances(g.adjacency)
    assert np.all(dist >= 0), "shipped skeleton must be connected"


def test_disentangled_path_graph_distance_two():
    g = gr.build_spatial_graph([(1, 2), (2, 3)], 3)
    mats = gr.disentangle_multiscale(g.adjacency, 2)
    expected = np.zeros((3, 3))
    expected[0, 2] = expected[2, 0] = 1.0
    np.testing.assert_array_equal(mats[2], expected)


def test_scale_zero_is_identity():
    rng = np.random.default_rng(0)
    adj = random_graph(rng, 7)
    mats = gr.disentangle_multiscale(adj, 3)
    np.testing.assert_array_equal(mats[0], np.eye(7))


def test_scales_match_bfs_oracle_and_are_disjoint():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        adj = random_graph(rng, n)
        scales = int(rng.integers(1, 5))
        mats = gr.disentangle_multiscale(adj, scales)
        dist = bfs_distances(adj)
        for m in range(scales + 1):
            np.testing.assert_array_equal(mats[m], (dist == m).astype(float),
                                          err_msg=f"scale {m} disagrees with BFS")
        total = sum(mats)
        assert total.max() <= 1.0, "scales must be disjoint"


def test_tile_window_two_nodes():
    tiled = gr.tile_window(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    np.testing.assert_array_equal(tiled, np.ones((4, 4)))


def test_tile_window_tau_one():
    adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(gr.tile_window(adj, 1), adj + np.eye(3))


def test_tiled_degree_formula():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        adj = random_graph(rng, n)
        tau = int(rng.integers(1, 5))
        tiled = gr.tile_window(adj, tau)
        spatial_deg = adj.sum(axis=1)
        for t in range(tau):
            for i in range(n):
                assert tiled[t * n + i].sum() == tau * (spatial_deg[i] + 1)


def test_tile_window_blocks_identical():
    rng = np.random.default_rng(3)
    adj = random_graph(rng, 5)
    tiled = gr.tile_window(adj, 3)
    ref = tiled[:5, :5]
    for p in range(3):
        for q in range(3):
            np.testing.assert_array_equal(tiled[p * 5:(p + 1) * 5, q * 5:(q + 1) * 5], ref)


def test_normalize_two_node_complete():
    out = gr.normalize(np.ones((2, 2)))
    np.testing.assert_allclose(out, np.full((2, 2), 0.5))


def test_normalize_identity_fixed_point():
    np.testing.assert_array_equal(gr.normalize(np.eye(4)), np.eye(4))


def power_iteration_radius(matrix, iters=500):
    """Spectral radius oracle for symmetric nonneg matrices by power iteration."""
    rng = np.random.default_rng(99)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
        lam = norm
    return lam


def test_normalized_spectral_radius_at_most_one():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        adj = random_graph(rng, n)
        tau = int(rng.integers(1, 4))
        norm = gr.normalize(gr.tile_window(adj, tau))
        np.testing.assert_allclose(norm, norm.T)
        assert power_iteration_radius(norm) <= 1.0 + 1e-9


def test_multiscale_bundle_shapes():
    g = gr.default_skeleton()
    spatial = gr.build_multiscale(g, scales=3)
    tiled = tiled_multiscale(g, scales=3, tau=4)
    assert len(tiled) == 4 and len(spatial) == 4
    assert tiled[0].shape == (72, 72)
    assert spatial[0].shape == (18, 18)


def test_tiled_equals_spatial_fast_path():
    # applying the tiled matrix to a window equals spatial/tau on the frame sum
    g = gr.build_spatial_graph([(1, 2), (2, 3), (3, 4)], 4)
    tau = 5
    spatial = gr.build_multiscale(g, scales=2)
    tiled = tiled_multiscale(g, scales=2, tau=tau)
    rng = np.random.default_rng(5)
    window = rng.standard_normal((tau * 4, 3))
    for m in range(3):
        dense = tiled[m] @ window
        frames = window.reshape(tau, 4, 3).sum(axis=0)
        fast = spatial[m] @ frames / tau
        np.testing.assert_allclose(dense, np.tile(fast, (tau, 1)), atol=1e-12)
