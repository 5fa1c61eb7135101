"""Record schema.

The paper's microbenchmark uses a schema of ten eight-byte integer
attributes (80-byte records).  The key attribute follows the key-value
permutation of the Wisconsin benchmark and the remaining attributes are
derived from the key by integer division and modulo computations
(Section 4, "Datasets and metrics").

Records are plain tuples of integers.  The :class:`Schema` carries the
metadata needed to price them (bytes per record) and to extract keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

#: Width of one attribute in bytes (eight-byte integers in the paper).
DEFAULT_FIELD_BYTES = 8

#: Number of attributes in the paper's microbenchmark schema.
DEFAULT_NUM_FIELDS = 10


@dataclass(frozen=True)
class Schema:
    """Fixed-width, integer-attribute record schema.

    Attributes:
        num_fields: number of attributes per record.
        field_bytes: width of each attribute in bytes.
        key_index: position of the sort/join key attribute.
    """

    num_fields: int = DEFAULT_NUM_FIELDS
    field_bytes: int = DEFAULT_FIELD_BYTES
    key_index: int = 0

    def __post_init__(self) -> None:
        if self.num_fields <= 0:
            raise ConfigurationError("num_fields must be positive")
        if self.field_bytes <= 0:
            raise ConfigurationError("field_bytes must be positive")
        if not 0 <= self.key_index < self.num_fields:
            raise ConfigurationError(
                f"key_index {self.key_index} outside [0, {self.num_fields})"
            )

    @property
    def record_bytes(self) -> int:
        """Size of one record in bytes (80 for the paper's schema)."""
        return self.num_fields * self.field_bytes

    def key(self, record: tuple) -> int:
        """Extract the key attribute from a record."""
        return record[self.key_index]

    def make_record(self, key: int) -> tuple:
        """Build a record from a key, Wisconsin-style.

        The first attribute is the key itself; every other attribute is a
        deterministic function of the key via integer division and modulo,
        mirroring the paper's data generator.  The derivations use distinct
        divisors so attributes are not trivially identical.
        """
        fields = [0] * self.num_fields
        fields[self.key_index] = key
        position = 0
        for index in range(self.num_fields):
            if index == self.key_index:
                continue
            divisor = 2 + position
            if position % 2 == 0:
                fields[index] = key // divisor
            else:
                fields[index] = key % (divisor * 10 + 1)
            position += 1
        return tuple(fields)


#: The paper's microbenchmark schema: ten eight-byte integers, key first.
WISCONSIN_SCHEMA = Schema()
