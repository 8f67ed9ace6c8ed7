"""``repro bench plot``: scaling-curve SVGs, rendered by hand.

The benchmark suite's curves (see :mod:`repro.bench.evaluate`) are small —
a handful of points per ``(model, engine, backend, shards)`` slice —
so this module renders them as standalone SVG documents with no plotting
dependency: pure string assembly, deterministic output (byte-identical for
identical curves), safe to commit next to the docs.

Each model gets one figure with two log-log panels sharing the x-axis
(particle count):

* **wall time** — every curve; how each execution strategy scales;
* **max golden error** — only curves whose points carry golden-site stats;
  the Monte-Carlo convergence everything is supposed to share.

Colors key on the curve's engine; the backend picks the dash pattern, so
``interp`` / ``compiled`` for one engine read as one hue in two line styles
(historical ``compiled+mega`` curves keep a third style).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["render_model_svg", "render_all", "plot_report"]

# Figure geometry (viewBox units; consumers scale freely).
_PANEL_W = 430
_PANEL_H = 240
_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 40
_LEGEND_H_PER_ROW = 16

#: Engine hue; anything unknown falls back to the last entry.
_ENGINE_COLORS = {
    "is": "#1f77b4",
    "smc": "#2ca02c",
    "svi": "#d62728",
    "mh": "#9467bd",
}
_FALLBACK_COLOR = "#7f7f7f"

#: Backend → stroke-dasharray ("" = solid); ``compiled+mega`` is historical.
_TIER_DASHES = {
    "interp": "",
    "compiled": "6 3",
    "compiled+mega": "2 3",
}


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _fmt(value: float) -> str:
    """Fixed-precision coordinates so output is platform-deterministic."""
    return f"{value:.2f}"


def _curve_style(curve: dict) -> Tuple[str, str]:
    color = _ENGINE_COLORS.get(curve.get("engine"), _FALLBACK_COLOR)
    jit = curve.get("jit", "none")
    backend = curve.get("backend", "interp")
    tier = backend if jit in (None, "none") else f"{backend}+{jit}"
    return color, _TIER_DASHES.get(tier, "1 2")


def _log_ticks(lo: float, hi: float) -> List[float]:
    """Powers of ten covering [lo, hi] (at least two ticks)."""
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    if hi_exp == lo_exp:
        hi_exp += 1
    return [10.0**e for e in range(lo_exp, hi_exp + 1)]


def _tick_label(value: float) -> str:
    exp = round(math.log10(value))
    if -3 <= exp <= 4:
        return f"{value:g}"
    return f"1e{exp}"


class _LogScale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        self.lo, self.hi = math.log10(lo), math.log10(hi)
        if self.hi <= self.lo:  # degenerate domain: center it
            self.lo, self.hi = self.lo - 0.5, self.lo + 0.5
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, value: float) -> float:
        t = (math.log10(value) - self.lo) / (self.hi - self.lo)
        return self.out_lo + t * (self.out_hi - self.out_lo)


def _panel(
    parts: List[str],
    curves: Sequence[dict],
    value_of,
    *,
    y0: float,
    title: str,
    y_label: str,
) -> None:
    """Render one log-log panel at vertical offset ``y0``."""
    xs = [p["particles"] for c in curves for p in c["points"] if value_of(p) is not None]
    ys = [value_of(p) for c in curves for p in c["points"] if value_of(p) is not None]
    ys = [y for y in ys if y > 0.0]
    left, right = _MARGIN_L, _MARGIN_L + _PANEL_W
    top, bottom = y0 + _MARGIN_T, y0 + _MARGIN_T + _PANEL_H
    parts.append(
        f'<text x="{_fmt(left)}" y="{_fmt(y0 + 20)}" class="title">{_esc(title)}</text>'
    )
    parts.append(
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_PANEL_W}" '
        f'height="{_PANEL_H}" class="frame"/>'
    )
    if not xs or not ys:
        parts.append(
            f'<text x="{_fmt(left + _PANEL_W / 2)}" y="{_fmt(top + _PANEL_H / 2)}" '
            f'class="empty" text-anchor="middle">no golden-site data</text>'
        )
        return
    sx = _LogScale(min(xs), max(xs), left, right)
    sy = _LogScale(min(ys), max(ys), bottom, top)

    # X ticks at the actual particle counts (the sweep uses few, named sizes).
    for px in sorted(set(xs)):
        x = sx(px)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(bottom)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(bottom + 4)}" class="tick"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(bottom + 16)}" class="lab" '
            f'text-anchor="middle">{_esc(f"{px:g}")}</text>'
        )
    for ty in _log_ticks(min(ys), max(ys)):
        y = sy(ty)
        if y < top - 1 or y > bottom + 1:
            continue
        parts.append(
            f'<line x1="{_fmt(left)}" y1="{_fmt(y)}" x2="{_fmt(right)}" '
            f'y2="{_fmt(y)}" class="grid"/>'
        )
        parts.append(
            f'<text x="{_fmt(left - 6)}" y="{_fmt(y + 3.5)}" class="lab" '
            f'text-anchor="end">{_esc(_tick_label(ty))}</text>'
        )
    parts.append(
        f'<text x="{_fmt(left - 48)}" y="{_fmt((top + bottom) / 2)}" class="lab" '
        f'transform="rotate(-90 {_fmt(left - 48)} {_fmt((top + bottom) / 2)})" '
        f'text-anchor="middle">{_esc(y_label)}</text>'
    )

    for curve in curves:
        pts = [
            (p["particles"], value_of(p))
            for p in curve["points"]
            if value_of(p) is not None and value_of(p) > 0.0
        ]
        if not pts:
            continue
        color, dash = _curve_style(curve)
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"{dash_attr}/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.4" '
                f'fill="{color}"/>'
            )


def _wall(point: dict) -> Optional[float]:
    return point.get("wall_time_s")


def _err(point: dict) -> Optional[float]:
    return point.get("max_abs_err")


def render_model_svg(model: str, curves: Sequence[dict]) -> str:
    """One standalone SVG for one model's curves (deterministic output)."""
    curves = sorted(curves, key=lambda c: c["key"])
    legend_rows = len(curves)
    height = 2 * (_MARGIN_T + _PANEL_H) + _MARGIN_B + legend_rows * _LEGEND_H_PER_ROW + 18
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="ui-monospace, monospace" font-size="11">',
        "<style>"
        ".title{font-size:13px;font-weight:bold;fill:#111}"
        ".frame{fill:none;stroke:#999;stroke-width:1}"
        ".grid{stroke:#e5e5e5;stroke-width:0.8}"
        ".tick{stroke:#999;stroke-width:1}"
        ".lab{fill:#444}"
        ".empty{fill:#999;font-style:italic}"
        "</style>",
    ]
    _panel(
        parts, curves, _wall,
        y0=0, title=f"{model} — wall time vs particles",
        y_label="wall time (s)",
    )
    second_y0 = _MARGIN_T + _PANEL_H + _MARGIN_B
    _panel(
        parts, curves, _err,
        y0=second_y0, title=f"{model} — max golden error vs particles",
        y_label="max abs err",
    )
    legend_y = 2 * (_MARGIN_T + _PANEL_H) + _MARGIN_B + 10
    for i, curve in enumerate(curves):
        color, dash = _curve_style(curve)
        y = legend_y + i * _LEGEND_H_PER_ROW
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(y)}" x2="{_MARGIN_L + 28}" '
            f'y2="{_fmt(y)}" stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + 36}" y="{_fmt(y + 3.5)}" class="lab">'
            f'{_esc(curve["key"])}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_all(curves: Sequence[dict]) -> Dict[str, str]:
    """``{model: svg_text}`` for every model present in ``curves``."""
    by_model: Dict[str, List[dict]] = {}
    for curve in curves:
        by_model.setdefault(curve["model"], []).append(curve)
    return {
        model: render_model_svg(model, model_curves)
        for model, model_curves in sorted(by_model.items())
    }


def plot_report(report: dict, out_dir) -> List[str]:
    """Write one ``<model>.svg`` per model from an evaluation report.

    Returns the written file names (sorted).  ``report`` is the document
    produced by :func:`repro.bench.evaluate.evaluate_run` (or any dict with
    a compatible ``curves`` list).
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for model, svg in render_all(report.get("curves", [])).items():
        name = f"{model.replace('/', '_')}.svg"
        (out / name).write_text(svg, encoding="utf-8")
        written.append(name)
    return sorted(written)
