"""Persistence-layer implementations (Section 3.2 of the paper).

Four backends share the :class:`~repro.pmem.backends.base.PersistenceBackend`
interface:

* :class:`~repro.pmem.backends.blocked_memory.BlockedMemoryBackend` -- a
  linked list of fixed-size blocks; the paper's minimal-overhead option.
* :class:`~repro.pmem.backends.dynamic_array.DynamicArrayBackend` -- a
  capacity-doubling vector over a persistent allocator; every expansion
  copies the existing payload, which is charged as extra reads and writes.
* :class:`~repro.pmem.backends.ramdisk.RamDiskBackend` -- a memory-mounted
  filesystem; accesses are rounded to filesystem blocks and every call pays
  a system-call overhead.
* :class:`~repro.pmem.backends.pmfs.PmfsBackend` -- a byte-addressable
  kernel filesystem; no block rounding, small per-call overhead.
"""

from repro.pmem.backends.base import PersistenceBackend, StoreStats
from repro.pmem.backends.blocked_memory import BlockedMemoryBackend
from repro.pmem.backends.dynamic_array import DynamicArrayBackend
from repro.pmem.backends.ramdisk import RamDiskBackend
from repro.pmem.backends.pmfs import PmfsBackend

from repro.exceptions import ConfigurationError

#: Registry of backend names used by the benchmark harness and examples.
BACKEND_REGISTRY = {
    "blocked_memory": BlockedMemoryBackend,
    "dynamic_array": DynamicArrayBackend,
    "ramdisk": RamDiskBackend,
    "pmfs": PmfsBackend,
}

#: Paper order for the implementation-comparison figures (6 and 8): from the
#: highest-overhead stack layer to the lowest.
BACKEND_PAPER_ORDER = ("dynamic_array", "ramdisk", "pmfs", "blocked_memory")


def make_backend(name, device, **kwargs):
    """Instantiate a backend by its registry name.

    Args:
        name: one of ``blocked_memory``, ``dynamic_array``, ``ramdisk``,
            ``pmfs``.
        device: the :class:`~repro.pmem.device.PersistentMemoryDevice` the
            backend charges its I/O against.
        **kwargs: backend options; the RAM disk's ``fs_block_bytes`` is
            the only one.

    Raises:
        ConfigurationError: for an unknown backend name.
    """
    try:
        cls = BACKEND_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(BACKEND_REGISTRY))
        raise ConfigurationError(
            f"unknown backend {name!r}; expected one of: {known}"
        ) from None
    return cls(device, **kwargs)


__all__ = [
    "PersistenceBackend",
    "StoreStats",
    "BlockedMemoryBackend",
    "DynamicArrayBackend",
    "RamDiskBackend",
    "PmfsBackend",
    "BACKEND_REGISTRY",
    "BACKEND_PAPER_ORDER",
    "make_backend",
]
