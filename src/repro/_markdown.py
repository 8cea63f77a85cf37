"""Markdown rendering shared by the metrics, spans and fleet reports."""

from __future__ import annotations

from typing import List


def md_table(headers: List[str], rows: List[List[str]]) -> str:
    """A Markdown table: the header row, a ``---`` separator row and one
    row per entry of *rows*."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
