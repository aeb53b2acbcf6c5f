"""The README's library example is the program that ``nbcq`` runs."""

import csv
import io
import re
from dataclasses import fields
from pathlib import Path

import nbcq.cli
from nbcq.cli import EVAL_CSV_COLUMNS, RunConfig, main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_usage_block() -> str:
    section = README.read_text().split("## Library usage", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_usage_prints_the_eval_feature_loss(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the block writes its bundle to the working directory
    exec(compile(library_usage_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()[0]

    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 0\nstorage = f32\n")
    bundle = str(tmp_path / "cli.nbcb")
    assert main(["calibrate", "--config", str(cfg), "--out", bundle]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--bundle", bundle]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert printed == rows[0]["feature_loss"]


def test_key_table_names_every_run_config_field_once():
    # the keys column of the CLI section's table: the first cell of each row
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(names) == sorted(f.name for f in fields(RunConfig))
    # and some command reads each row's keys: a key that no command reads
    # is a setting that does nothing
    header = next(line for line in section.splitlines() if line.startswith("| keys |"))
    commands = [cell.strip() for cell in header.strip("|").split("|")[1:]]
    assert commands == ["calibrate", "search-n", "eval", "analyze-outliers", "export"]
    for row in rows:
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        assert len(cells) == 1 + len(commands), row
        assert any(cells[1:]), f"no command reads {cells[0]}"


def column_list(text: str, intro: str) -> list[str]:
    """The comma-separated names in the block that follows ``intro`` in ``text``."""
    block = text.split(intro, 1)[1].strip().split("\n\n", 1)[0]
    return [name.strip() for name in block.strip("`").split(",")]


def test_eval_column_lists_are_the_csv_columns():
    # README's and the cli docstring's lists, so that a column added to the
    # CSV without them fails here
    assert column_list(README.read_text(), "columns in this fixed order:") == EVAL_CSV_COLUMNS
    assert column_list(nbcq.cli.__doc__, "column order:") == EVAL_CSV_COLUMNS
