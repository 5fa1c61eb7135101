"""Wall-clock benchmark of the ``repro`` query system (see README.md)."""
