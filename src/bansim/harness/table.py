"""Result tables with a provenance header and deterministic CSV bytes."""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import __version__


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    seed: int = 0
    config_hash: str = ""

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None
        return [row[idx] for row in self.rows]

    def _body(self) -> list[str]:
        """One CSV line per row, each rendered by one ``%`` call with one
        format picked per column; bool, numpy scalar and mixed-type columns
        go through ``_format_cell`` first."""
        width = len(self.columns)
        if set(map(len, self.rows)) - {width}:
            # the transpose below would drop the cells past the shortest row
            i, n = next((i, len(r)) for i, r in enumerate(self.rows)
                        if len(r) != width)
            raise ValueError(f"row {i} has {n} cells, table has {width} columns")
        cols = list(zip(*self.rows))
        formats = []
        for i, cells in enumerate(cols):
            # all float: %.10g is _format_cell's text; all int or all str: %s
            kinds = set(map(type, cells))
            if kinds == {float}:
                formats.append("%.10g")
                continue
            if kinds != {int} and kinds != {str}:
                cols[i] = tuple(map(_format_cell, cells))
            formats.append("%s")
        # a table without columns still writes one empty line per row
        rows = zip(*cols) if cols else [()] * len(self.rows)
        return list(map(",".join(formats).__mod__, rows))

    def to_csv(self) -> str:
        header = [
            f"# bansim_version={__version__}",
            f"# seed={self.seed}",
            f"# config_hash={self.config_hash}",
            ",".join(self.columns),
        ]
        return "\n".join(header + self._body()) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())
