"""Golden-file regression test for the sharded ``explain()`` rendering.

The canonical 2-shard Wisconsin join plan's rendered output is snapshot
tested: any change to how estimates or actuals are reported shows up as a
reviewable diff of ``golden_explain_2shard.txt``.  Regenerate with::

    REGENERATE_GOLDEN=1 python -m pytest tests/test_shard/test_explain_golden.py
"""

import os
import pathlib

from repro.query import Query
from repro.session import Session
from repro.shard import ShardSet
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import make_join_inputs

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_explain_2shard.txt")


def canonical_two_shard_join_explain() -> str:
    """The canonical plan: 300 x 3000 Wisconsin join, 2 shards, 10% DRAM."""
    shard_set = ShardSet.create(2)
    left, right = make_join_inputs(300, 3_000, shard_set)
    budget = MemoryBudget.fraction_of(left, 0.10)
    result = Session(shard_set, budget).query(
        Query.scan(left).join(Query.scan(right))
    )
    return result.explain()


def test_two_shard_wisconsin_join_explain_matches_golden():
    rendered = canonical_two_shard_join_explain()
    if os.environ.get("REGENERATE_GOLDEN"):
        GOLDEN_PATH.write_text(rendered + "\n", encoding="utf-8")
    golden = GOLDEN_PATH.read_text(encoding="utf-8").rstrip("\n")
    assert rendered == golden, (
        "sharded explain() rendering changed; inspect the diff and, if "
        "intended, regenerate with REGENERATE_GOLDEN=1 python -m pytest "
        f"{__file__}"
    )


def test_explain_is_deterministic_across_runs():
    assert canonical_two_shard_join_explain() == canonical_two_shard_join_explain()
