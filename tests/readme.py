"""The README read as test input: its tables, its quoted spans and its
message forms."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def text() -> str:
    return README.read_text()


def spans(source: str | None = None) -> list[str]:
    """The backticked spans of a text, the README's by default, in order."""
    return re.findall(r"`([^`\n]+)`", text() if source is None else source)


def table(header: str) -> list[list[str]]:
    """The cells of each body row of the README table whose header row is
    ``| <header> | ...``."""
    lines = iter(text().splitlines())
    for line in lines:
        if line.startswith(f"| {header} |"):
            break
    else:
        raise LookupError(f"no README table headed {header!r}")
    next(lines)  # the | --- | row
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def examples() -> list[tuple[str, str, str]]:
    """(experiment, config lines, stderr line) of each message-form example."""
    rows = []
    for _, experiment, body, stderr in table("Form"):
        [experiment], [stderr] = spans(experiment), spans(stderr)
        rows.append((experiment, "\n".join(spans(body)), stderr))
    return rows


def form(prefix: str) -> re.Pattern:
    """The one quoted message form that starts with ``prefix``, as a pattern:
    ``<N>`` reads a number and any other ``<...>`` any text."""
    [quoted] = [span for span in spans() if span.startswith(prefix)]
    pattern = re.escape(quoted).replace("<N>", r"\d+")
    return re.compile(re.sub(r"<[^>]+>", ".+", pattern))
