"""Minimal deterministic SVG line charts (no external renderer, no metadata)."""

from __future__ import annotations

WIDTH, HEIGHT = 720, 460
# XML character data: &, < and > escaped, any other text kept byte for byte
_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_chart_svg(series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render named (x, y) series as a ``WIDTH`` by ``HEIGHT`` SVG line chart.

    ``series`` is a sequence of ``(name, points)`` with ``points`` a sequence
    of (x, y) pairs, read as floats where they are used, not copied: a
    chart of many points holds them once. Output bytes depend only on the
    inputs.
    """
    series = [(name, pts) for name, pts in series if pts]
    left, right, top, bottom = 70, 20, 40, 55
    px0, px1 = left, WIDTH - right
    py0, py1 = HEIGHT - bottom, top
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{WIDTH / 2:g}" y="22" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{title.translate(_TEXT)}</text>')
    if not series:
        out.append(f'<text x="{WIDTH / 2:g}" y="{HEIGHT / 2:g}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13">no data</text></svg>')
        return "\n".join(out) + "\n"

    xmin = min(float(x) for _, pts in series for x, _ in pts)
    xmax = max(float(x) for _, pts in series for x, _ in pts)
    ymin = min(float(y) for _, pts in series for _, y in pts)
    ymax = max(float(y) for _, pts in series for _, y in pts)
    if xmax == xmin:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax == ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5

    def sx(x: float) -> float:
        return px0 + (float(x) - xmin) / (xmax - xmin) * (px1 - px0)

    def sy(y: float) -> float:
        return py0 + (float(y) - ymin) / (ymax - ymin) * (py1 - py0)

    out.append(f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black"/>')
    out.append(f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black"/>')
    for i in range(5):
        fx = xmin + (xmax - xmin) * i / 4
        fy = ymin + (ymax - ymin) * i / 4
        out.append(f'<line x1="{sx(fx):.2f}" y1="{py0}" x2="{sx(fx):.2f}" y2="{py0 + 5}" stroke="black"/>')
        out.append(f'<text x="{sx(fx):.2f}" y="{py0 + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt(fx)}</text>')
        out.append(f'<line x1="{px0 - 5}" y1="{sy(fy):.2f}" x2="{px0}" y2="{sy(fy):.2f}" stroke="black"/>')
        out.append(f'<text x="{px0 - 8}" y="{sy(fy) + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(fy)}</text>')
    if xlabel:
        out.append(f'<text x="{(px0 + px1) / 2:g}" y="{HEIGHT - 12}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{xlabel.translate(_TEXT)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{(py0 + py1) / 2:g}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {(py0 + py1) / 2:g})">{ylabel.translate(_TEXT)}</text>')
    for k, (name, pts) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        if len(pts) == 1:
            x, y = pts[0]
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        else:
            path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = top + 16 * k
        out.append(f'<line x1="{px1 - 130}" y1="{ly}" x2="{px1 - 110}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{px1 - 104}" y="{ly + 4}" font-family="sans-serif" '
                   f'font-size="11">{name.translate(_TEXT)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
