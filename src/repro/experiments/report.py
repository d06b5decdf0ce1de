"""Plain-text reporting: the rows/series each paper figure plots."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class Table:
    """A monospace table (one figure's series)."""

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)

    def add_row(self, *values) -> None:
        row = list(values)
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def column(self, name: str) -> list:
        """All values of one column (for tests/benchmark assertions)."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        def fmt(value) -> str:
            if isinstance(value, bool):
                text = str(value)
            elif isinstance(value, float):
                text = f"{value:.3f}"
            else:
                text = str(value)
            # Keep one cell = one visual cell: escape the column
            # separator and embedded newlines so a hostile benchmark
            # name cannot shear the table.
            return text.replace("|", "\\|").replace("\n", "\\n").replace("\r", "\\r")

        def numeric(index: int) -> bool:
            """A column is numeric iff every cell is an int/float (not bool)."""
            return bool(self.rows) and all(
                isinstance(row[index], (int, float)) and not isinstance(row[index], bool)
                for row in self.rows
            )

        cells = [[fmt(v) for v in row] for row in self.rows]
        headers = [fmt(h) for h in self.headers]
        widths = [
            max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
            for i, header in enumerate(headers)
        ]
        aligns = [
            (str.rjust if numeric(i) else str.ljust) for i in range(len(headers))
        ]
        lines = [self.title]
        lines.append(
            "  ".join(align(header, width)
                      for align, header, width in zip(aligns, headers, widths))
        )
        lines.append("  ".join("-" * width for width in widths))
        for row in cells:
            lines.append(
                "  ".join(align(cell, width)
                          for align, cell, width in zip(aligns, row, widths))
            )
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Everything one experiment produces."""

    experiment_id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def table(self, title: str) -> Table:
        for table in self.tables:
            if table.title == title:
                return table
        raise KeyError(f"no table titled {title!r} in {self.experiment_id}")

    def to_text(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for table in self.tables:
            parts.append(table.render())
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

    def to_dict(self) -> dict:
        """JSON-serialisable representation (for downstream tooling)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "tables": [
                {
                    "title": table.title,
                    "headers": list(table.headers),
                    "rows": [list(row) for row in table.rows],
                }
                for table in self.tables
            ],
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        """All tables concatenated as CSV sections."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        for table in self.tables:
            writer.writerow([f"# {self.experiment_id}: {table.title}"])
            writer.writerow(table.headers)
            writer.writerows(table.rows)
            writer.writerow([])
        return buffer.getvalue()


def percent(numerator: float, denominator: float) -> float:
    """A guarded percentage."""
    return 100.0 * numerator / denominator if denominator else 0.0


def share_table(title: str, key_header: str, shares: dict[str, Sequence[float]],
                value_headers: Sequence[str]) -> Table:
    """Build a table of percentage shares keyed by ``key_header``."""
    table = Table(title, [key_header, *value_headers])
    for key, values in shares.items():
        table.add_row(key, *values)
    return table
