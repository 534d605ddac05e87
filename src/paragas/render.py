"""Gantt renderings of schedules: time on the horizontal axis, storage keys
on the vertical axis.  Rendering is purely cosmetic; layout may approximate
rational positions but never feeds back into any computed number.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor

from .core import format_approx
from .scheduler import Schedule, makespan

MAX_TICKS = 50  # time-axis ticks in an SVG, whatever the makespan
PX_PER_UNIT = 48  # SVG scale up to a makespan of MAX_TICKS; longer ones shrink
ROW_HEIGHT = 28
TEXT_WIDTH = 60  # columns of a text chart's time axis

_PALETTE = ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
            "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac")


def _rows(schedule: Schedule) -> list[tuple[str, list]]:
    """Per storage key, the (tx_id, start, end) segments that lock it."""
    keys = sorted(schedule.txs.all_keys())
    rows = []
    for key in keys:
        segs = [(tx.tx_id, schedule.starts[tx.tx_id],
                 schedule.starts[tx.tx_id] + tx.time)
                for tx in schedule.txs if key in tx.keys]
        rows.append((key, sorted(segs, key=lambda s: (s[1], s[0]))))
    return rows


def gantt_text(schedule: Schedule) -> str:
    span = makespan(schedule)
    if span == 0:
        return "(empty schedule)"
    scale = Fraction(TEXT_WIDTH) / span
    label_w = max([len(k) for k in schedule.txs.all_keys()] + [4])
    lines = [f"makespan = {span} ({format_approx(span)})"]
    for key, segs in _rows(schedule):
        row = [" "] * TEXT_WIDTH
        for tx_id, start, end in segs:
            a = int(start * scale)
            b = max(a + 1, int(end * scale))
            mark = (tx_id[-1] if tx_id else "#")
            for i in range(a, min(b, TEXT_WIDTH)):
                row[i] = mark
            label_at = min(a, TEXT_WIDTH - len(tx_id))
            for j, ch in enumerate(tx_id[:max(0, b - a)]):
                if 0 <= label_at + j < TEXT_WIDTH:
                    row[label_at + j] = ch
        lines.append(f"{key:<{label_w}} |{''.join(row)}|")
    lines.append(" " * label_w + "  0"
                 + " " * (TEXT_WIDTH - len(str(span)) - 1) + str(span))
    return "\n".join(lines)


def _escape(text: str) -> str:
    """Text as XML character data (ids and keys are arbitrary strings)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _to_pixels(span: Fraction):
    """The map from a time to its offset in pixels: PX_PER_UNIT per unit up
    to a span of MAX_TICKS, and MAX_TICKS units' width for a longer span.
    A time becomes a float and is then scaled, which fixes every position
    to the last digit; under a span too large for a float it is scaled
    exactly and then converted."""
    if span <= MAX_TICKS:
        per_unit = PX_PER_UNIT
    else:
        try:
            per_unit = PX_PER_UNIT * MAX_TICKS / float(span)
        except OverflowError:
            return lambda t: float(t * PX_PER_UNIT * MAX_TICKS / span)
    return lambda t: float(t) * per_unit


def gantt_svg(schedule: Schedule) -> str:
    span = makespan(schedule)
    rows = _rows(schedule)
    label_w = 90
    to_px = _to_pixels(span)
    chart_w = max(int(to_px(span)), PX_PER_UNIT)
    width = label_w + chart_w + 20
    height = (len(rows) + 1) * ROW_HEIGHT + 30
    colors = {tx.tx_id: _PALETTE[i % len(_PALETTE)]
              for i, tx in enumerate(schedule.txs)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="12">',
        f'<text x="4" y="16">makespan = {span}</text>',
    ]
    for r, (key, segs) in enumerate(rows):
        y = 24 + r * ROW_HEIGHT
        parts.append(f'<text x="4" y="{y + ROW_HEIGHT * 2 // 3}">'
                     f'{_escape(key)}</text>')
        parts.append(f'<line x1="{label_w}" y1="{y + ROW_HEIGHT}" '
                     f'x2="{label_w + chart_w}" y2="{y + ROW_HEIGHT}" '
                     f'stroke="#ddd"/>')
        for tx_id, start, end in segs:
            x = label_w + to_px(start)
            w = max(to_px(end - start), 1.0)
            parts.append(
                f'<rect x="{x:.2f}" y="{y + 3}" width="{w:.2f}" '
                f'height="{ROW_HEIGHT - 6}" fill="{colors[tx_id]}" '
                f'stroke="#333"><title>{_escape(tx_id)}: [{start}, {end})'
                f'</title></rect>')
            parts.append(f'<text x="{x + 3:.2f}" '
                         f'y="{y + ROW_HEIGHT * 2 // 3}" '
                         f'fill="#fff">{_escape(tx_id)}</text>')
    # integer time ticks: one per unit, or a whole step of several units that
    # keeps them to about MAX_TICKS
    axis_y = 24 + len(rows) * ROW_HEIGHT
    step = max(1, -(-floor(span) // MAX_TICKS))
    for tick in range(0, floor(span) + 1, step):
        x = label_w + round(to_px(tick))
        parts.append(f'<line x1="{x}" y1="24" x2="{x}" y2="{axis_y}" '
                     f'stroke="#eee"/>')
        parts.append(f'<text x="{x - 3}" y="{axis_y + 16}">{tick}</text>')
    parts.append('</svg>')
    return "\n".join(parts)
