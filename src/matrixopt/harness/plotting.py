"""Static SVG convergence charts (log10 residual vs iteration)."""

from __future__ import annotations

import math

from ..errors import PreconditionError

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 20, 50
FLOOR = 1e-300


def _log10(v: float) -> float:
    return math.log10(max(abs(v), FLOOR))


def emit_convergence_plot(report, path, tolerance: float | None = None) -> None:
    """Write an SVG line chart of the residual history.

    ``report`` is a mapping with a ``residual_history`` list, as in the
    JSON report of ``solve --history``.  Only finite residuals are drawn,
    each at its iteration; the last one is marked with a circle (id
    ``final-point``) and a dashed horizontal line (id ``tolerance-line``)
    marks ``tolerance`` when given, so downstream checks can read both
    back from the file.
    """
    history = list(report.get("residual_history") or [])
    finite = [
        (i, _log10(v)) for i, v in enumerate(history)
        if isinstance(v, (int, float)) and math.isfinite(v)
    ]
    if not finite:
        raise PreconditionError("residual history holds no finite residual to plot")

    ys = [y for _, y in finite]
    y_vals = ys + ([_log10(tolerance)] if tolerance else [])
    y_min, y_max = min(y_vals), max(y_vals)
    if y_max - y_min < 1e-9:
        y_min -= 1.0
        y_max += 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad
    x_max = max(len(history) - 1, 1)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(i: float) -> float:
        return MARGIN_L + plot_w * i / x_max

    def py(y: float) -> float:
        return MARGIN_T + plot_h * (y_max - y) / (y_max - y_min)

    points = " ".join(f"{px(i):.2f},{py(y):.2f}" for i, y in finite)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
    ]
    n_ticks = 5
    for t in range(n_ticks + 1):
        y = y_min + (y_max - y_min) * t / n_ticks
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py(y):.2f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{y:.1f}</text>'
        )
        i = x_max * t / n_ticks
        parts.append(
            f'<text x="{px(i):.2f}" y="{HEIGHT - MARGIN_B + 16}" font-size="11" '
            f'text-anchor="middle">{i:.0f}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" '
        f'font-size="12" text-anchor="middle">iteration</text>'
    )
    parts.append(
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2})">log10 residual</text>'
    )
    if tolerance:
        ty = py(_log10(tolerance))
        parts.append(
            f'<line id="tolerance-line" x1="{MARGIN_L}" y1="{ty:.2f}" '
            f'x2="{WIDTH - MARGIN_R}" y2="{ty:.2f}" stroke="red" '
            f'stroke-dasharray="6 4"/>'
        )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
    )
    parts.append(
        f'<circle id="final-point" cx="{px(finite[-1][0]):.2f}" cy="{py(ys[-1]):.2f}" '
        f'r="3.5" fill="steelblue"/>'
    )
    parts.append("</svg>")

    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
