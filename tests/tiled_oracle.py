"""Literal tiled-window form of the LFEM, kept as a test oracle.

The graph convolution is defined on a (tau*N, C) clip window through the
normalised tiled matrices; `LocalFeatureExtractor.extract` computes the same
map on each clip's mean pose. These helpers run the definition clip by clip
so the tests can check `extract` against it.
"""

from wogma import autodiff as ad
from wogma import graph as gr
from wogma.autodiff import DTensor
from wogma.errors import ConfigurationError


def tiled_multiscale(graph, scales, tau):
    """Normalised (tau*N, tau*N) window matrix of each scale 0..scales."""
    return tuple(gr.normalize(gr.tile_window(m, tau))
                 for m in gr.disentangle_multiscale(graph.adjacency, scales))


def g3d_conv(clip, tiled, thetas):
    """relu(sum_m tiled_m @ clip @ theta_m) on one (tau*N, C_in) window; no bias."""
    if len(thetas) != len(tiled):
        raise ConfigurationError(f"{len(thetas)} weight matrices for {len(tiled)} scales")
    total = None
    for mat, theta in zip(tiled, thetas):
        term = ad.linear(ad.graph_apply(mat, clip), theta)
        total = term if total is None else ad.add(total, term)
    return ad.relu(total)


def collapse_time(window, weight, tau, joints):
    """Collapse a (tau*N, C) window to (N, D) with learned per-frame weights."""
    c = window.values.shape[-1]
    unrolled = ad.reshape(window, (1, tau, joints, c))
    return ad.reshape(ad.collapse_window(unrolled, weight), (joints, weight.values.shape[2]))


def extract_dense(extractor, tiled, clips):
    """`extractor`'s features for (L, tau, N, C) clips, one window at a time."""
    tau, joints = extractor.tau, extractor.joints
    rows = []
    for clip in clips:
        window = DTensor(clip.reshape(tau * joints, -1))
        for layer_thetas in extractor.thetas:
            window = g3d_conv(window, tiled, layer_thetas)
        rows.append(collapse_time(window, extractor.params["lfem.collapse"], tau, joints))
    return extractor.aggregate_joints(ad.stack_rows(rows))
