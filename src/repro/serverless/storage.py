"""Global object storage (the S3/GCS/Azure blob role in Figure 2).

Workload binaries and their dependencies are stored here by the
workload manager; worker backends download them at deploy time. The
model charges transfer time from a configurable storage bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..sim import Environment

#: Fixed cost of every transfer (request round trip, first byte).
BASE_LATENCY_SECONDS = 2e-3


class StorageError(KeyError):
    """Raised for missing objects."""


@dataclass
class StoredObject:
    name: str
    size_bytes: int
    content_hash: int
    version: int


class ObjectStorage:
    """A bandwidth-limited blob store."""

    def __init__(self, env: Environment,
                 bandwidth_bytes_per_second: float = 200 * 1024 * 1024
                 ) -> None:
        self.env = env
        self.bandwidth = bandwidth_bytes_per_second
        self._objects: Dict[str, StoredObject] = {}
        self.uploads = 0
        self.downloads = 0
        self.bytes_transferred = 0

    def _transfer_seconds(self, size_bytes: int) -> float:
        return BASE_LATENCY_SECONDS + size_bytes / self.bandwidth

    def put(self, name: str, size_bytes: int, content_hash: int = 0):
        """Process: upload a blob; returns the stored object record."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")

        def uploader():
            yield self.env.timeout(self._transfer_seconds(size_bytes))
            previous = self._objects.get(name)
            record = StoredObject(
                name=name,
                size_bytes=size_bytes,
                content_hash=content_hash,
                version=(previous.version + 1) if previous else 1,
            )
            self._objects[name] = record
            self.uploads += 1
            self.bytes_transferred += size_bytes
            return record

        return self.env.process(uploader())

    def download(self, name: str):
        """Process: download a blob; returns its record."""

        def downloader():
            record = self._objects.get(name)
            if record is None:
                raise StorageError(f"no object {name!r} in storage")
            yield self.env.timeout(self._transfer_seconds(record.size_bytes))
            self.downloads += 1
            self.bytes_transferred += record.size_bytes
            return record

        return self.env.process(downloader())

    def stat(self, name: str) -> Optional[StoredObject]:
        """Metadata lookup without transfer time."""
        return self._objects.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._objects
