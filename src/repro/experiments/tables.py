"""Small table/statistics helpers shared by the experiment harnesses.

Rendering goes through one machine: :func:`format_table` renders a
header + rows grid as fixed-width ASCII (the runner's stdout style) or
GitHub-flavoured Markdown, and :func:`format_csv` renders the same grid
as RFC-4180 CSV.  The report engine (:mod:`repro.report`) builds all of
its Markdown/CSV output on these two functions.

The statistics helpers are *strict*: :func:`geometric_mean` and
:func:`pearson_correlation` raise :class:`ValueError` on inputs for
which the quantity is undefined (empty sequences, non-positive values,
constant series) instead of letting ``nan``/silently-wrong figures leak
into reports.  Callers that need the historical forgiving behaviour opt
in explicitly (``floor=`` / ``strict=False``).
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, Sequence


def geometric_mean(values: Iterable[float], *,
                   floor: float | None = None) -> float:
    """Geometric mean of a sequence of positive values.

    The paper's Table I summarises every column with a geometric mean.

    Args:
        values: the sample; must be non-empty and strictly positive.
        floor: when given, values below ``floor`` are clamped up to it
            instead of raising -- the historical Table-I behaviour that
            keeps a summary defined even if a metric collapses to zero.
            Negative values raise regardless (a negative sample is a bug
            upstream, not a degenerate metric).

    Raises:
        ValueError: on an empty sequence, on negative values, or (without
            ``floor``) on zero values.
    """
    items = [float(v) for v in values]
    if not items:
        raise ValueError("geometric mean of an empty sequence is undefined")
    negative = [v for v in items if v < 0]
    if negative:
        raise ValueError(
            f"geometric mean is undefined for negative values "
            f"(got {negative[0]!r})")
    if floor is not None:
        items = [max(v, floor) for v in items]
    elif any(v == 0 for v in items):
        raise ValueError(
            "geometric mean of values containing zero is undefined; "
            "pass floor= to clamp instead")
    return math.exp(sum(math.log(v) for v in items) / len(items))


def pearson_correlation(xs: Sequence[float], ys: Sequence[float], *,
                        strict: bool = True) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Args:
        xs: first series.
        ys: second series, same length.
        strict: raise on degenerate inputs (fewer than two points, or a
            constant series, where the coefficient is undefined) instead
            of returning ``0.0``.

    Raises:
        ValueError: on unequal lengths; in strict mode also on fewer than
            two points or a zero-variance series.
    """
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    n = len(xs)
    if n < 2:
        if strict:
            raise ValueError(
                f"Pearson correlation needs at least two points, got {n}")
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        if strict:
            which = "first" if var_x <= 0 else "second"
            raise ValueError(
                f"Pearson correlation is undefined: the {which} series "
                "is constant (zero variance)")
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly-interpolated ``q``-th percentile (``0 <= q <= 100``).

    Raises:
        ValueError: on an empty sequence or ``q`` outside ``[0, 100]``.
    """
    if not values:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def format_campaign(result) -> str:
    """ASCII rendition of a campaign sweep's per-job outcomes.

    Args:
        result: a :class:`~repro.campaign.executor.CampaignRunResult`.
    """
    headers = ["Job", "Design", "Clock (ps)", "Extract", "Expand", "m",
               "Regs SDC", "Regs ISDC", "Stages", "Iters", "Evals"]
    rows = []
    for job in result.payload["jobs"]:
        config = job["config"]
        outcome = job["result"]
        design = job["design"]
        if len(design) > 40:
            design = design[:37] + "..."
        rows.append([
            job["job_id"][:8], design, f"{config['clock_period_ps']:.0f}",
            config["extraction"], config["expansion"],
            config["subgraphs_per_iteration"],
            outcome["initial"]["registers"], outcome["final"]["registers"],
            outcome["final"]["stages"], outcome["iterations"],
            outcome["evaluations"],
        ])
    summary = (f"campaign {result.payload['name']!r}: "
               f"{result.payload['num_jobs']} jobs "
               f"({result.executed} executed, {result.skipped} resumed) "
               f"in {result.elapsed_s:.2f}s")
    return format_table(headers, rows) + "\n" + summary


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 style: str = "ascii") -> str:
    """Render a header + rows grid as a text table.

    Args:
        headers: column titles.
        rows: row cells (stringified with ``str``).
        style: ``"ascii"`` for the fixed-width runner style,
            ``"markdown"`` for a GitHub-flavoured Markdown table.

    Raises:
        ValueError: for an unknown style.
    """
    if style not in ("ascii", "markdown"):
        raise ValueError(f"unknown table style {style!r}; "
                         "expected 'ascii' or 'markdown'")
    columns = [[str(h)] + [str(row[i]) for row in rows]
               for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if style == "markdown":
        lines.append("| " + " | ".join(
            h.ljust(w) for h, w in zip(headers, widths)) + " |")
        lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in rows:
            lines.append("| " + " | ".join(
                str(cell).ljust(w) for cell, w in zip(row, widths)) + " |")
        return "\n".join(lines)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(w)
                                for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a header + rows grid as CSV (RFC-4180 quoting, ``\\n`` EOL)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([str(h) for h in headers])
    for row in rows:
        writer.writerow([str(cell) for cell in row])
    return buffer.getvalue()
