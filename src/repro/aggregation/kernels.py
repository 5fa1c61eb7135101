"""Generated aggregation kernels, compiled once per aggregate spec.

Grouped aggregation spends its Python time per record and per group, so
both operators run generated code with every aggregate's source snippets
(see :mod:`repro.aggregation.functions`) inlined:

* ``fold_sorted(records)`` serves :class:`SortedAggregation`: it runs
  :func:`itertools.groupby` over a group-ordered record stream and yields
  one output tuple per group, each aggregate computed over the whole group
  by its ``group_source`` (``len(rows)``, ``sum(map(get1, rows))``, ...).
* ``fold_block(block, table, limit, spill)`` serves
  :class:`HashAggregation`: it folds a block into ``table`` (group key ->
  list of state slots), creating a group from its first record with the
  ``init_source`` snippets and folding later ones with ``fold_source``.
  A record whose group is absent while the table holds ``limit`` groups is
  appended to the list ``spill`` instead.
* ``finish(table)`` turns a table into its output tuples in key order with
  the ``final_source`` snippets.

Output tuples are ``(group_key, aggregate_1, aggregate_2, ...)`` in spec
order, exactly what folding each record through the aggregates'
``initial``/``step``/``final`` would give.  :func:`compile_kernels` caches
the kernels per ``(spec, group attribute)``, so building an operator for a
spec seen before compiles nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Callable

from repro.aggregation.functions import AggregateFunction, make_aggregate

#: Distinct ``(spec, group attribute)`` pairs whose kernels stay compiled.
KERNEL_CACHE_SIZE = 64


@dataclass(frozen=True)
class AggregationKernels:
    """The generated functions of one aggregate spec and group attribute."""

    #: ``(aggregate, attribute)`` pairs in output order.
    aggregates: tuple[tuple[AggregateFunction, int], ...]
    #: ``fold_sorted(records)``: one output tuple per group of a
    #: group-ordered stream.
    fold_sorted: Callable
    #: ``fold_block(block, table, limit, spill)``: fold a block into the
    #: hash table, spilling records of groups that do not fit.
    fold_block: Callable
    #: ``finish(table)``: the table's output tuples in key order.
    finish: Callable


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def compile_kernels(
    spec: tuple[tuple[str, int], ...], group_index: int
) -> AggregationKernels:
    """The kernels of ``spec`` (``(aggregate name, attribute)`` pairs)
    grouping on attribute ``group_index``.

    Raises :class:`~repro.exceptions.ConfigurationError` for an unknown
    aggregate name.
    """
    aggregates = tuple((make_aggregate(name), attribute) for name, attribute in spec)
    namespace = {
        "groupby": groupby,
        "first": itemgetter(0),
        "get_group": itemgetter(group_index),
    }
    sorted_outputs = []
    init_values = []
    fold_lines = []
    final_outputs = []
    init_reads: set[int] = set()
    fold_reads: set[int] = set()
    base = 0
    for aggregate, attribute in aggregates:
        namespace[f"get{attribute}"] = itemgetter(attribute)
        value = "key" if attribute == group_index else f"v{attribute}"
        fields = {
            "value": value,
            "values": f"map(get{attribute}, rows)",
            "state": [f"states[{base + i}]" for i in range(aggregate.state_slots)],
        }
        base += aggregate.state_slots
        sorted_outputs.append(aggregate.group_source.format(**fields))
        init_values.append(aggregate.init_source.format(**fields))
        fold_lines.extend(aggregate.fold_source.format(**fields).splitlines())
        final_outputs.append(aggregate.final_source.format(**fields))
        if value != "key":
            if "{value}" in aggregate.init_source:
                init_reads.add(attribute)
            if "{value}" in aggregate.fold_source:
                fold_reads.add(attribute)

    def reads(attributes, indent):
        return [f"{indent}v{a} = record[{a}]" for a in sorted(attributes)]

    lines = [
        "def fold_sorted(records):",
        "    for key, rows in groupby(records, get_group):",
        "        rows = list(rows)",
        f"        yield (key, {', '.join(sorted_outputs)})",
        "",
        "def fold_block(block, table, limit, spill):",
        "    get = table.get",
        "    spill_record = spill.append",
        "    for record in block:",
        f"        key = record[{group_index}]",
        "        states = get(key)",
        "        if states is None:",
        "            if len(table) >= limit:",
        "                spill_record(record)",
        "                continue",
        *reads(init_reads, "            "),
        f"            table[key] = [{', '.join(init_values)}]",
        "        else:",
        *reads(fold_reads, "            "),
        *("            " + line for line in fold_lines),
        "",
        "def finish(table):",
        f"    return [(key, {', '.join(final_outputs)})",
        "            for key, states in sorted(table.items(), key=first)]",
    ]
    source = "\n".join(lines) + "\n"
    filename = f"<aggregation kernels {spec!r} by {group_index}>"
    exec(compile(source, filename, "exec"), namespace)
    return AggregationKernels(
        aggregates=aggregates,
        fold_sorted=namespace["fold_sorted"],
        fold_block=namespace["fold_block"],
        finish=namespace["finish"],
    )
