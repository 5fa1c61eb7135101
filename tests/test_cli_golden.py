"""Golden-file regression test for the ``query``, ``figure`` and ``table`` CLI output.

Every canned query's full report -- plan rendering with estimated vs.
actual I/O per node, the summary lines and the record preview -- is
compared byte for byte against a committed fixture in ``golden_cli/``.
The fixtures are the reference for the single execution path: any change
to plans, simulated I/O or rendering shows up as a reviewable diff.
Regenerate with::

    REGENERATE_GOLDEN=1 python -m pytest tests/test_cli_golden.py
"""

import os
import pathlib

import pytest

from tests.golden_pass import cli_output, observed_pass

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden_cli")

CASES = {
    "query_sort": ["query", "sort"],
    "query_filter-sort": ["query", "filter-sort"],
    "query_join": ["query", "join"],
    "query_join-sort": ["query", "join-sort"],
    "query_aggregate": ["query", "aggregate"],
    "query_join_materialize": ["query", "join", "--materialize"],
    "query_aggregate_2shard": ["query", "aggregate", "--shards", "2"],
    # An exchange from materialized inputs to four destinations.
    "query_aggregate_4shard": ["query", "aggregate", "--shards", "4"],
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
    # The sort sweep under each of the four persistence backends.
    "figure_6_records_2000": ["figure", "6", "--records", "2000"],
    # The paper's join figures: the memory sweep (Figure 7), the same sweep
    # on each persistence backend (Figure 8; at 400 x 4000 records rather
    # than the default 600 x 6000, to keep it near one second) and the
    # write-intensity sweep (Figure 10).
    "figure_7_left_400_right_4000": [
        "figure", "7", "--left", "400", "--right", "4000",
    ],
    "figure_8_left_400_right_4000": [
        "figure", "8", "--left", "400", "--right", "4000",
    ],
    "figure_10": ["figure", "10"],
    # The analytical figure and table: the Figure 2 cost surfaces and the
    # Table 1 lazy hash join progression.
    "figure_2": ["figure", "2"],
    "table_1": ["table", "1"],
    # Figures 11 and 12 on a non-default backend, so a run that stops
    # receiving --backend changes the output.
    "figure_11_dynamic_array": [
        "figure", "11", "--records", "300", "--left", "100", "--right", "1000",
        "--backend", "dynamic_array",
    ],
    "figure_12_dynamic_array": [
        "figure", "12", "--records", "300", "--left", "100", "--right", "1000",
        "--fractions", "0.05", "0.15", "--backend", "dynamic_array",
    ],
}


def observed_cases():
    """Every case's output, run once per session under the golden
    observers, keyed by its argument tuple."""
    return observed_pass(
        "cli", [tuple(CASES[name]) for name in sorted(CASES)], cli_output
    )


@pytest.fixture(scope="module")
def observed():
    return observed_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_query_cli_output_matches_golden(name, observed):
    rendered = observed[tuple(CASES[name])].value
    golden_path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REGENERATE_GOLDEN"):
        golden_path.write_text(rendered, encoding="utf-8")
    assert rendered == golden_path.read_text(encoding="utf-8"), (
        f"`python -m repro {' '.join(CASES[name])}` output changed; inspect "
        "the diff and, if intended, regenerate with REGENERATE_GOLDEN=1 "
        f"python -m pytest {__file__}"
    )
