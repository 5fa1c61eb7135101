"""Cost-based query planning and execution over persistent memory.

This package turns the paper's isolated sort/join/aggregation algorithms
into an end-to-end query system: the *best* physical operator on a
persistent-memory device depends on the write/read asymmetry ``lambda``,
the memory fraction ``M/|T|`` and the input sizes (Sections 2.1-2.2), so
the planner prices every alternative with the analytical cost models and
the executor runs the winners.

The API has three layers:

**Logical plans** (:mod:`repro.query.logical`)
    ``Scan``, ``Filter``, ``Project``, ``Join``, ``GroupBy`` and
    ``OrderBy`` nodes, normally built with the fluent :class:`Query`
    builder::

        from repro.query import Query

        query = (
            Query.scan(orders)                       # a PersistentCollection
            .filter(lambda r: r[0] < 500, selectivity=0.25)
            .join(Query.scan(lineitems))             # equi-join on the keys
            .order_by()                              # sort on the key
        )

**Cost-based planning** (:mod:`repro.query.planner`)
    :class:`CostBasedPlanner` enumerates the physical alternatives for
    each node -- ExMS/LaS/HybS/SegS for ordering, NLJ/GJ/HJ/LaJ/SegJ/HybJ
    for joins (Grace only when ``M > sqrt(f |T|)``), hash vs. sorted
    aggregation for grouping -- and prices them with the Section 2 models
    using the device's ``lambda``, its geometry and the
    :class:`~repro.storage.bufferpool.MemoryBudget`::

        from repro.query import CostBasedPlanner

        plan = CostBasedPlanner(backend, budget).plan(query)
        print(plan.explain())        # chosen operator + estimates per node

**The physical operator protocol** (:mod:`repro.query.physical`)
    Every plan node executes behind one streaming interface --
    :class:`PhysicalOperator` with ``open()``/``blocks()``/``close()`` --
    and every plan edge carries a :class:`Boundary` decision: materialize
    the intermediate on the device, pipeline it in DRAM, or defer it
    entirely so the consumer re-derives it through the Section 3.1 runtime
    (:mod:`repro.runtime`).  ``explain()`` renders the decision per edge
    with the estimated vs. actual settlement writes it saved.

**Execution** (:mod:`repro.query.executor`)
    :class:`QueryExecutor` runs one fragment's plan over the batched
    block-I/O path, one operator at a time, with every operator's DRAM
    workspace registered against a shared
    :class:`~repro.storage.bufferpool.Bufferpool` so the budget is
    enforced end-to-end.  The final output stays in DRAM unless the
    plan's root is materialized (the paper factors that write out of its
    comparisons).  Whole queries -- single-device ones are one-shard
    plans -- run through :mod:`repro.shard`; the front door is the
    :class:`repro.session.Session` facade::

        from repro import Session

        result = Session(backend, budget).query(query)
        print(result.records[:5])
        print(result.explain())      # estimated vs. actual I/O per node

``python -m repro query <name>`` runs a few canned Wisconsin-workload
queries through exactly this pipeline, and
``benchmarks/bench_planner_vs_fixed.py`` checks that the planner tracks
the measured-cheapest fixed algorithm across the write-intensity grid.
"""

from repro.query.executor import FragmentResult, NodeExecution, QueryExecutor
from repro.query.physical import (
    BOUNDARY_POLICIES,
    Boundary,
    BoundaryKind,
    PhysicalOperator,
    build_operator,
)
from repro.query.logical import (
    Filter,
    GroupBy,
    Join,
    LogicalNode,
    OrderBy,
    Project,
    Query,
    Scan,
)
from repro.query.planner import (
    JOIN_ALTERNATIVES,
    SORT_ALTERNATIVES,
    CostBasedPlanner,
    PhysicalPlan,
    PlannedNode,
)

__all__ = [
    "LogicalNode",
    "Scan",
    "Filter",
    "Project",
    "Join",
    "GroupBy",
    "OrderBy",
    "Query",
    "CostBasedPlanner",
    "PhysicalPlan",
    "PlannedNode",
    "SORT_ALTERNATIVES",
    "JOIN_ALTERNATIVES",
    "BOUNDARY_POLICIES",
    "Boundary",
    "BoundaryKind",
    "PhysicalOperator",
    "build_operator",
    "QueryExecutor",
    "FragmentResult",
    "NodeExecution",
]
