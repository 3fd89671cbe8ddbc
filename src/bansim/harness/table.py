"""Result tables with a provenance header and deterministic CSV bytes."""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import __version__

# a column's one exact type and its cells' format: a bool, though an int,
# would print as True, and a numpy scalar's text is numpy's, not Python's
_FORMATS = {float: "%.10g", int: "%s", str: "%s"}


@dataclass
class ResultTable:
    """Named columns of equal length, each all float, all int or all str."""

    columns: dict[str, list]
    seed: int
    config_hash: str
    _row_format: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lengths = {name: len(cells) for name, cells in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns differ in length: {lengths}")
        formats = []
        for name, cells in self.columns.items():
            kinds = set(map(type, cells))
            if len(kinds) > 1 or not kinds <= _FORMATS.keys():
                raise ValueError(
                    f"column {name!r} holds {sorted(k.__name__ for k in kinds)}; "
                    "a column holds floats, ints or strs alone"
                )
            formats.append(_FORMATS[kinds.pop()] if kinds else "%s")
        self._row_format = ",".join(formats)

    @property
    def rows(self) -> list[tuple]:
        return list(zip(*self.columns.values()))

    def column(self, name: str) -> list:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}") from None

    def to_csv(self) -> str:
        header = [
            f"# bansim_version={__version__}",
            f"# seed={self.seed}",
            f"# config_hash={self.config_hash}",
            ",".join(self.columns),
        ]
        body = map(self._row_format.__mod__, zip(*self.columns.values()))
        return "\n".join([*header, *body]) + "\n"
