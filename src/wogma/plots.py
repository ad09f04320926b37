"""Dependency-free SVG emission for the evaluation artefacts.

Two chart kinds: the AUC-versus-observed-fraction curve and per-video
timeline strips showing the online action probability with ground-truth
segments and extracted instances as horizontal bands.
"""

from __future__ import annotations

import re
from xml.sax.saxutils import escape

WIDTH = 640
HEIGHT = 360
MARGIN = 50


def _header(title: str) -> list[str]:
    # XML 1.0 forbids C0 controls but tab, LF and CR, U+FFFE, U+FFFF and lone
    # surrogates even as character references: each becomes U+FFFD
    title = re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", "\ufffd",
                   title)
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{escape(title)}</text>',
    ]


def _axes(x_label: str, y_label: str) -> list[str]:
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{escape(x_label)}</text>',
        f'<text x="15" y="{(y0 + y1) / 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 15 {(y0 + y1) / 2})">'
        f'{escape(y_label)}</text>',
    ]


def _x_pos(value: float, lo: float, hi: float) -> float:
    span = hi - lo if hi > lo else 1.0
    return MARGIN + (value - lo) / span * (WIDTH - 2 * MARGIN)


def _y_pos(value: float, lo: float = 0.0, hi: float = 1.0) -> float:
    span = hi - lo if hi > lo else 1.0
    return HEIGHT - MARGIN - (value - lo) / span * (HEIGHT - 2 * MARGIN)


def curve_svg(points: list[tuple[float, float]]) -> str:
    """Line chart of (fraction, AUC) points, one circle per data point."""
    parts = _header("AUC vs observed fraction") + _axes("fraction of video observed", "AUC")
    if points:
        xs = [p[0] for p in points]
        lo, hi = min(xs), max(xs)
        coords = [(_x_pos(x, lo, hi), _y_pos(y)) for x, y in points]
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        parts.append(f'<polyline points="{path}" fill="none" stroke="#1f6fb2" '
                     f'stroke-width="2"/>')
        for (x, y), (fx, fy) in zip(points, coords):
            parts.append(f'<circle cx="{fx:.2f}" cy="{fy:.2f}" r="3" fill="#1f6fb2">'
                         f'<title>{x:g}: {y:.4f}</title></circle>')
        for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
            ty = _y_pos(tick)
            parts.append(f'<text x="{MARGIN - 6}" y="{ty + 4:.2f}" text-anchor="end" '
                         f'font-size="10" font-family="sans-serif">{tick:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def timeline_svg(video_id: str, probs: list[float], frame_spans: list[tuple[int, int]],
                 gt_segments: list[tuple[int, int]] | None,
                 instances: list[tuple[int, int]] | None) -> str:
    """Per-video strip: action probability per clip with gt/instance bands
    and a dashed line at probability 0.5."""
    parts = _header(f"online detection: {video_id}")
    parts += _axes("frame", "action probability")
    if probs:
        total = max(end for _, end in frame_spans)
        coords = []
        for p, (start, end) in zip(probs, frame_spans):
            centre = (start + end) / 2.0
            coords.append((_x_pos(centre, 1, total), _y_pos(p)))
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        parts.append(f'<polyline points="{path}" fill="none" stroke="#1f6fb2" '
                     f'stroke-width="2"/>')
        thr_y = _y_pos(0.5)
        parts.append(f'<line x1="{MARGIN}" y1="{thr_y:.2f}" x2="{WIDTH - MARGIN}" '
                     f'y2="{thr_y:.2f}" stroke="#999" stroke-dasharray="4 3"/>')
        for start, end in gt_segments or []:
            x0, x1 = _x_pos(start, 1, total), _x_pos(end, 1, total)
            parts.append(f'<rect x="{x0:.2f}" y="{_y_pos(1.0):.2f}" '
                         f'width="{max(x1 - x0, 1):.2f}" height="12" fill="#2ca02c" '
                         f'opacity="0.5"><title>ground truth</title></rect>')
        for start, end in instances or []:
            x0, x1 = _x_pos(start, 1, total), _x_pos(end, 1, total)
            parts.append(f'<rect x="{x0:.2f}" y="{_y_pos(0.0) - 12:.2f}" '
                         f'width="{max(x1 - x0, 1):.2f}" height="12" fill="#d62728" '
                         f'opacity="0.5"><title>detected</title></rect>')
    parts.append("</svg>")
    return "\n".join(parts)
