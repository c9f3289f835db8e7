"""Plain-text rendering of experiment results.

The harness is headless (no plotting dependency), so every figure and table is
reproduced as a text table: the same rows and series the paper's plots show,
printable from the CLI, the examples and the benchmark harness.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .figure_series import FigureData


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.4g}",
) -> str:
    """Render a list of rows as an aligned monospace table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = [
        "  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)),
        "  ".join("-" * widths[k] for k in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)))
    return "\n".join(lines)


def format_figure(figure: FigureData, title: Optional[str] = None) -> str:
    """Render a :class:`FigureData` (Figure 2/3-style) as a text table.

    One row per grid point: the total per-edge cost axis, the per-game link
    costs, the per-game values and the per-game equilibrium counts.
    """
    headers = [
        "log(edge cost)",
        "alpha_ucg",
        f"ucg {figure.quantity}",
        "#eq_ucg",
        "alpha_bcg",
        f"bcg {figure.quantity}",
        "#eq_bcg",
    ]
    rows = []
    for ucg_point, bcg_point in zip(figure.ucg.points, figure.bcg.points):
        rows.append(
            [
                ucg_point.axis,
                ucg_point.alpha,
                ucg_point.value,
                ucg_point.num_equilibria,
                bcg_point.alpha,
                bcg_point.value,
                bcg_point.num_equilibria,
            ]
        )
    table = format_table(headers, rows)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(f"population: {figure.description}")
    crossover = figure.crossover_cost()
    if figure.quantity == "average_poa":
        if crossover is None:
            lines.append("no UCG/BCG crossover on this grid")
        else:
            lines.append(
                f"BCG average PoA becomes worse than UCG near total edge cost "
                f"{crossover:.3g}"
            )
    lines.append(table)
    return "\n".join(lines)


def summary_dict(store, source: Optional[str] = None) -> dict:
    """Machine-readable summary of any census, delta or weighted store.

    The one JSON-safe summary shape the service layer, the CLI and the
    ``format_*_summary`` renderers all share: the store's own ``summary()``
    plus its ``kind`` tag and the ``source`` provenance, so no consumer has
    to parse the rendered table.
    """
    summary = dict(store.summary())
    summary["kind"] = store.KIND
    summary["source"] = source
    return summary


def _as_summary(store_or_summary, source: Optional[str]) -> dict:
    """Accept either a store object or an already-built summary dict.

    Rendering from the dict keeps presentation code off store internals —
    the CLI and the HTTP service both hand the same machine-readable
    summary to the same renderer.
    """
    if isinstance(store_or_summary, dict):
        summary = dict(store_or_summary)
        if source is not None:
            summary["source"] = source
        return summary
    return summary_dict(store_or_summary, source=source)


def format_store_summary(store, source: Optional[str] = None) -> str:
    """Render a :class:`~repro.analysis.store.CensusStore` artifact summary.

    One line of provenance plus a per-column size table — what the CLI
    ``census`` subcommand prints so operators can see what an artifact
    holds (and costs in resident memory) without loading records.
    ``store`` may be the store itself or a :func:`summary_dict` payload
    (the machine-readable twin of this table).
    """
    summary = _as_summary(store, source)
    source = summary.get("source")
    lines = [
        (
            f"census store: n = {summary['n']}, {summary['classes']} classes, "
            f"ucg = {'yes' if summary['include_ucg'] else 'no'}, "
            f"format v{summary['format_version']}, "
            f"{summary['nbytes'] / 1e6:.2f} MB resident"
        )
    ]
    if source:
        lines.append(f"source: {source}")
    rows = [
        [name, size, f"{size / max(1, summary['classes']):.1f}"]
        for name, size in sorted(summary["column_bytes"].items())
    ]
    lines.append(format_table(["column", "bytes", "bytes/class"], rows))
    return "\n".join(lines)


def format_weighted_store_summary(store, source: Optional[str] = None) -> str:
    """Render a :class:`~repro.analysis.weighted_store.WeightedStore` summary.

    Mirrors :func:`format_store_summary` for the weighted artifacts: one
    provenance line (scenario recipe included when the artifact carries
    one) plus the per-column size table.  ``store`` may be the store
    itself or a :func:`summary_dict` payload.
    """
    summary = _as_summary(store, source)
    source = summary.get("source")
    scenario = summary["scenario"] or "ad-hoc model"
    seed = summary["seed"]
    lines = [
        (
            f"weighted store: n = {summary['n']}, {summary['classes']} "
            f"classes, scenario = {scenario}"
            + (f" (seed {seed})" if seed is not None else "")
            + f", format v{summary['format_version']}, "
            f"{summary['nbytes'] / 1e6:.2f} MB resident"
        )
    ]
    if source:
        lines.append(f"source: {source}")
    if summary["scenario_params"]:
        params = ", ".join(
            f"{key}={value!r}"
            for key, value in sorted(summary["scenario_params"].items())
            if key not in ("name", "n", "seed")
        )
        if params:
            lines.append(f"params: {params}")
    rows = [
        [name, size, f"{size / max(1, summary['classes']):.1f}"]
        for name, size in sorted(summary["column_bytes"].items())
    ]
    lines.append(format_table(["column", "bytes", "bytes/class"], rows))
    return "\n".join(lines)


def format_ascii_series(
    values: Sequence[float], width: int = 40, label: str = ""
) -> str:
    """A crude ASCII sparkline of a series (for quick terminal inspection)."""
    finite = [v for v in values if v == v and v not in (float("inf"), float("-inf"))]
    if not finite:
        return f"{label} (no finite data)"
    lo, hi = min(finite), max(finite)
    span = hi - lo or 1.0
    blocks = " .:-=+*#%@"
    chars = []
    for v in values:
        if v != v or v in (float("inf"), float("-inf")):
            chars.append("?")
        else:
            level = int((v - lo) / span * (len(blocks) - 1))
            chars.append(blocks[level])
    return f"{label}[{''.join(chars[:width])}]  min={lo:.3g} max={hi:.3g}"
