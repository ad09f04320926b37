"""Literal tiled-window form of the LFEM, kept as a test oracle.

The graph convolution is defined on a (tau*N, C) clip window through the
normalised tiled matrices; `LocalFeatureExtractor.extract` computes the same
map on each clip's mean pose. These helpers run the definition clip by clip
so the tests can check `extract` against it; criterion 1 grad-checks
graph_apply and collapse_window, and criterion 3 checks tile_window.
"""

import numpy as np

from tape_oracle import stack_rows
from wogma import autodiff as ad
from wogma import graph as gr
from wogma.autodiff import DTensor
from wogma.errors import ConfigurationError


def tile_window(scale_adjacency: np.ndarray, tau: int) -> np.ndarray:
    """Tile a spatial scale matrix into a (tau*N, tau*N) block matrix.

    Every (p, q) frame block equals scale_adjacency + I clipped to {0, 1}, so
    each joint connects to itself and its scale-m neighbours in every frame
    of the window. Self-connections keep all degrees positive.
    """
    n = scale_adjacency.shape[0]
    block = np.minimum(scale_adjacency + np.eye(n), 1.0)
    return np.kron(np.ones((tau, tau)), block)


def graph_apply(a: np.ndarray, x) -> DTensor:
    """Left-multiply by a constant (non-learnable) matrix: out = a @ x.

    x may carry leading batch dimensions: (..., n, c) with a: (n, n).
    """
    x = ad._as_tensor(x)
    a = np.asarray(a, dtype=np.float64)
    if x.values.shape[-2] != a.shape[1]:
        raise ad.ShapeError(f"graph_apply: matrix {a.shape} does not match x {x.values.shape}")
    out = DTensor(np.matmul(a, x.values), requires_grad=ad._needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += np.matmul(a.T, g)

    ad._record(out, pull)
    return out


def collapse_window(x, w) -> DTensor:
    """Weighted sum over the window's time axis, mixing channels per joint.

    x: (L, tau, N, C), w: (C, tau, D) -> (L, N, D); no mixing across joints.
    """
    x, w = ad._as_tensor(x), ad._as_tensor(w)
    if x.values.ndim != 4 or w.values.ndim != 3:
        raise ad.ShapeError(f"collapse_window: x {x.values.shape}, w {w.values.shape}")
    if x.values.shape[1] != w.values.shape[1] or x.values.shape[3] != w.values.shape[0]:
        raise ad.ShapeError(f"collapse_window: x {x.values.shape} does not match w {w.values.shape}")
    out = DTensor(np.einsum("ltnc,ctd->lnd", x.values, w.values, optimize=True),
                  requires_grad=ad._needs(x, w))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += np.einsum("lnd,ctd->ltnc", g, w.values, optimize=True)
        if w.requires_grad:
            w.ensure_grad()[...] += np.einsum("ltnc,lnd->ctd", x.values, g, optimize=True)

    ad._record(out, pull)
    return out


def tiled_multiscale(adjacency, scales, tau):
    """Normalised (tau*N, tau*N) window matrix of each scale 0..scales of the
    (N, N) 0/1 adjacency."""
    return tuple(gr.normalize(tile_window(m, tau))
                 for m in gr.disentangle_multiscale(adjacency, scales))


def g3d_conv(clip, tiled, thetas):
    """relu(sum_m tiled_m @ clip @ theta_m) on one (tau*N, C_in) window; no bias."""
    if len(thetas) != len(tiled):
        raise ConfigurationError(f"{len(thetas)} weight matrices for {len(tiled)} scales")
    total = None
    for mat, theta in zip(tiled, thetas):
        term = ad.linear(graph_apply(mat, clip), theta)
        total = term if total is None else ad.add(total, term)
    return ad.relu(total)


def collapse_time(window, weight, tau, joints):
    """Collapse a (tau*N, C) window to (N, D) with learned per-frame weights."""
    c = window.values.shape[-1]
    unrolled = ad.reshape(window, (1, tau, joints, c))
    return ad.reshape(collapse_window(unrolled, weight), (joints, weight.values.shape[2]))


def extract_dense(extractor, tiled, clips):
    """`extractor`'s features for (L, tau, N, C) clips, one window at a time."""
    tau, joints = extractor.tau, clips.shape[2]
    rows = []
    for clip in clips:
        window = g3d_conv(DTensor(clip.reshape(tau * joints, -1)), tiled, extractor.thetas)
        rows.append(collapse_time(window, extractor.params["lfem.collapse"], tau, joints))
    return extractor.aggregate_joints(stack_rows(rows))
