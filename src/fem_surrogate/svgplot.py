"""Hand-rolled SVG line charts: solver curve vs surrogate prediction with
test points marked, one panel per output channel.  Channels spanning several
decades are drawn on a log10 axis.  No plotting dependency."""

import numpy as np

WIDTH = 860
PANEL_H = 250
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 36, 42

TRUE_COLOR = "#1f77b4"
PRED_COLOR = "#d62728"


def _ticks(lo: float, hi: float, n: int) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def _polyline(xs, ys) -> str:
    return " ".join("%.2f,%.2f" % (x, y) for x, y in zip(xs, ys))


def plot_curves(path, freq, true_out, pred_out, is_test, channel_names, title: str) -> None:
    """Write an SVG of the solver curves true_out (n, k) against the
    surrogate's pred_out (n, k) over freq (n,), one panel per channel, with
    the points where is_test is set circled and title above the panels."""
    freq = np.asarray(freq, dtype=float)
    true_out = np.asarray(true_out, dtype=float)
    pred_out = np.asarray(pred_out, dtype=float)
    k = true_out.shape[1]
    height = MARGIN_T + k * PANEL_H + 10

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{WIDTH - MARGIN_R}" y="20" text-anchor="end" fill="{TRUE_COLOR}">'
        f'solver</text>'
        f'<text x="{WIDTH - MARGIN_R - 60}" y="20" text-anchor="end" fill="{PRED_COLOR}">'
        f'surrogate</text>',
    ]

    x_lo, x_hi = freq[0], freq[-1]
    plot_w = WIDTH - MARGIN_L - MARGIN_R

    def x_px(f):
        return MARGIN_L + (f - x_lo) / (x_hi - x_lo) * plot_w

    for c in range(k):
        top = MARGIN_T + c * PANEL_H
        bottom = top + PANEL_H - MARGIN_B
        plot_h = bottom - top - 8

        yt, yp = true_out[:, c], pred_out[:, c]
        y_all = np.concatenate([yt, yp])
        log_axis = y_all.min() > 0.0 and y_all.max() / y_all.min() > 500.0
        if log_axis:
            yt_d, yp_d = np.log10(yt), np.log10(yp)
        else:
            yt_d, yp_d = yt, yp
        lo = min(yt_d.min(), yp_d.min())
        hi = max(yt_d.max(), yp_d.max())
        pad = 0.05 * (hi - lo if hi > lo else 1.0)
        lo, hi = lo - pad, hi + pad

        def y_px(v):
            return bottom - (v - lo) / (hi - lo) * plot_h

        label = channel_names[c] + (" (log10)" if log_axis else "")
        parts.append(f'<text x="{MARGIN_L}" y="{top + 4}" fill="#333">{label}</text>')
        parts.append(f'<rect x="{MARGIN_L}" y="{top + 8}" width="{plot_w}" '
                     f'height="{plot_h}" fill="none" stroke="#999"/>')

        for tv in _ticks(lo, hi, 4):
            py = y_px(tv)
            parts.append(f'<line x1="{MARGIN_L - 4}" y1="{py:.2f}" x2="{MARGIN_L}" '
                         f'y2="{py:.2f}" stroke="#999"/>')
            parts.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
                         f'fill="#555">%.4g</text>' % tv)
        for tv in _ticks(x_lo, x_hi, 6):
            px = x_px(tv)
            parts.append(f'<line x1="{px:.2f}" y1="{bottom}" x2="{px:.2f}" '
                         f'y2="{bottom + 4}" stroke="#999"/>')
            parts.append(f'<text x="{px:.2f}" y="{bottom + 16}" text-anchor="middle" '
                         f'fill="#555">%.4g</text>' % tv)

        parts.append(f'<polyline points="{_polyline(x_px(freq), y_px(yt_d))}" '
                     f'fill="none" stroke="{TRUE_COLOR}" stroke-width="1.5"/>')
        parts.append(f'<polyline points="{_polyline(x_px(freq), y_px(yp_d))}" '
                     f'fill="none" stroke="{PRED_COLOR}" stroke-width="1.2" '
                     f'stroke-dasharray="5,3"/>')
        for i in np.flatnonzero(np.asarray(is_test)):
            parts.append(f'<circle cx="{x_px(freq[i]):.2f}" cy="{y_px(yt_d[i]):.2f}" '
                         f'r="2.5" fill="none" stroke="#444"/>')
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="{bottom + 32}" '
                     f'text-anchor="middle" fill="#333">frequency (Hz)</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
