"""Shared bench-harness utilities: result rows and table printing.

Every ``benchmarks/bench_*.py`` regenerates one table or figure of the
paper.  The helpers here keep the output format uniform: a title line
naming the paper artifact, aligned columns, and (when available) the
paper's reported value next to the measured one so the shape comparison
is one glance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import get_run

__all__ = ["Table"]


@dataclass
class Table:
    """Aligned text table with a paper-artifact title."""

    title: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}")
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        title = f"== {self.title} =="
        header = "  ".join(c.ljust(w)
                           for c, w in zip(self.columns, widths)).rstrip()
        body = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                for row in self.rows]
        # The rule must span the widest rendered line — a long title (or
        # short header over wide rows) used to leave it undersized.
        rule = "-" * max(len(line) for line in [title, header, *body])
        return "\n".join([title, header, rule, *body])

    def show(self) -> None:
        print(self.render())
        print()
        # When a run is recording (repro bench under REPRO_RUNS_DIR)
        # the rendered table also lands in the run's event stream.
        run = get_run()
        if run is not None:
            run.emit("bench_table", data={
                "title": self.title, "columns": list(self.columns),
                "rows": [list(r) for r in self.rows]})
