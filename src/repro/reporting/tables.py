"""Markdown/CSV table rendering for benchmark reports."""

from __future__ import annotations

from collections.abc import Sequence


def format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def markdown_table(headers: Sequence[str],
                   rows: Sequence[Sequence]) -> str:
    """Render rows as a GitHub-flavoured markdown table."""
    header_cells = [str(h) for h in headers]
    body = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in header_cells]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells):
        padded = [c.ljust(w) for c, w in zip(cells, widths)]
        return "| " + " | ".join(padded) + " |"

    lines = [render_row(header_cells),
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(render_row(row) for row in body)
    return "\n".join(lines)


def write_report(path, title: str, sections: list[tuple[str, str]]) -> None:
    """Write a markdown report file with titled sections."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {title}\n\n")
        for heading, body in sections:
            handle.write(f"## {heading}\n\n{body}\n\n")
