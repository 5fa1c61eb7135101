"""RAM-disk persistence backend.

Models the paper's first implementation option (Section 3.2, "RAM disk"):
persistent collections are ordinary files on a memory-mounted filesystem.
The filesystem gives persistence semantics while mounted, but imposes the
traditional storage interface: accesses are rounded to filesystem records
(512 bytes by default) and every operation goes through a system call,
which costs :data:`SYSCALL_OVERHEAD_NS`.  Both penalties are charged
explicitly so the experiments can attribute the backend's overhead the
same way the paper does.  The record size is the one setting: the
block-size ablation sweeps it like an OS page size.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.pmem.backends.base import PersistenceBackend, StoreStats
from repro.pmem.device import PersistentMemoryDevice

#: Filesystem record size; the paper notes files are organized in 512-byte
#: records, with larger block sizes configurable like an OS page size.
DEFAULT_FS_BLOCK_BYTES = 512

#: Cost of one filesystem call (read()/write() through the VFS), ns.
SYSCALL_OVERHEAD_NS = 700.0


class RamDiskBackend(PersistenceBackend):
    """Block-granular, system-call-priced filesystem over DRAM.

    Args:
        device: the device to charge I/O against.
        fs_block_bytes: filesystem record size; every transfer is rounded up
            to a multiple of this.
    """

    name = "ramdisk"

    def __init__(
        self,
        device: PersistentMemoryDevice,
        fs_block_bytes: int = DEFAULT_FS_BLOCK_BYTES,
    ) -> None:
        super().__init__(device)
        if fs_block_bytes <= 0:
            raise ConfigurationError("fs_block_bytes must be positive")
        self.fs_block_bytes = fs_block_bytes

    def _rounded(self, nbytes: int) -> int:
        """Round a transfer up to whole filesystem blocks."""
        blocks = -(-nbytes // self.fs_block_bytes)  # ceiling division
        return blocks * self.fs_block_bytes

    def _charge_append(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        physical = self._rounded(chunk_bytes)
        needed = stats.logical_bytes + chunk_bytes * count
        self._grow_to(stats, needed, self.fs_block_bytes)
        # Writes are synchronous to the RAM-disk region and block-granular:
        # a partial record still writes the whole record.
        self.device.write_bulk(physical, count)
        self.device.overhead(SYSCALL_OVERHEAD_NS, "syscall", count)
        stats.extra["padded_write_bytes"] = (
            stats.extra.get("padded_write_bytes", 0)
            + (physical - chunk_bytes) * count
        )

    def _charge_read(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        physical = self._rounded(chunk_bytes)
        self.device.read_bulk(physical, count)
        self.device.overhead(SYSCALL_OVERHEAD_NS, "syscall", count)
        stats.extra["padded_read_bytes"] = (
            stats.extra.get("padded_read_bytes", 0)
            + (physical - chunk_bytes) * count
        )
