"""Config parsing, result tables, SVG plots, experiment runners and the CLI."""
