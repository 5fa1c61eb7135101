"""Golden-file regression test for the ``query`` and sort ``figure`` CLI output.

Every canned query's full report -- plan rendering with estimated vs.
actual I/O per node, the summary lines and the record preview -- is
compared byte for byte against a committed fixture in ``golden_cli/``.
The fixtures are the reference for the single execution path: any change
to plans, simulated I/O or rendering shows up as a reviewable diff.
Regenerate with::

    REGENERATE_GOLDEN=1 python -m pytest tests/test_cli_golden.py
"""

import itertools
import os
import pathlib

import pytest

from repro.cli import main
from repro.shard import planner as shard_planner

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden_cli")

CASES = {
    "query_sort": ["query", "sort"],
    "query_filter-sort": ["query", "filter-sort"],
    "query_join": ["query", "join"],
    "query_join-sort": ["query", "join-sort"],
    "query_aggregate": ["query", "aggregate"],
    "query_join_materialize": ["query", "join", "--materialize"],
    "query_aggregate_2shard": ["query", "aggregate", "--shards", "2"],
    # The same query under HashAgg: spilling at 5% of the input in DRAM,
    # every group in memory at 50%.
    "query_aggregate_hashagg_spill": ["query", "aggregate", "--fraction", "0.05"],
    "query_aggregate_hashagg_memory": ["query", "aggregate", "--fraction", "0.5"],
    "query_join-sort_2shard": ["query", "join-sort", "--shards", "2"],
    "query_filter-sort_defer": ["query", "filter-sort", "--boundaries", "defer"],
    "query_join-sort_defer": ["query", "join-sort", "--boundaries", "defer"],
    "query_join-sort_defer_segj": [
        "query", "join-sort", "--boundaries", "defer", "--fraction", "0.02",
    ],
    # The paper's sort figures: ExMS, HybS, LaS and SegS over the memory
    # sweep (Figure 5) and the write-intensity sweep (Figure 9).
    "figure_5_records_2000": ["figure", "5", "--records", "2000"],
    "figure_9": ["figure", "9"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_query_cli_output_matches_golden(name, capsys, monkeypatch):
    # Exchange stores are named after a process-wide plan counter; restart
    # it so every case renders as `python -m repro ...` does in a fresh
    # process, whatever ran before it.
    monkeypatch.setattr(shard_planner, "_plan_counter", itertools.count())
    assert main(CASES[name]) == 0
    rendered = capsys.readouterr().out
    golden_path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REGENERATE_GOLDEN"):
        golden_path.write_text(rendered, encoding="utf-8")
    assert rendered == golden_path.read_text(encoding="utf-8"), (
        f"`python -m repro {' '.join(CASES[name])}` output changed; inspect "
        "the diff and, if intended, regenerate with REGENERATE_GOLDEN=1 "
        f"python -m pytest {__file__}"
    )
