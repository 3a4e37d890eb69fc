"""The replicated log (1-indexed, as in the Raft paper)."""

from __future__ import annotations

from typing import List

from .messages import LogEntry


class RaftLog:
    """An in-memory Raft log with the usual index/term helpers."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_index(self) -> int:
        return len(self._entries)

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else 0

    def entry(self, index: int) -> LogEntry:
        """1-indexed access."""
        if index < 1 or index > len(self._entries):
            raise IndexError(f"log has no entry {index}")
        return self._entries[index - 1]

    def term_at(self, index: int) -> int:
        """Term of entry ``index``; index 0 has term 0."""
        if index == 0:
            return 0
        return self.entry(index).term

    def append(self, entry: LogEntry) -> int:
        """Append and return the new entry's index."""
        self._entries.append(entry)
        return len(self._entries)

    def entries_from(self, index: int) -> List[LogEntry]:
        """Entries at ``index`` and beyond (1-indexed)."""
        return list(self._entries[max(0, index - 1):])

    def truncate_from(self, index: int) -> None:
        """Delete entry ``index`` and everything after it."""
        self._entries = self._entries[:max(0, index - 1)]

    def matches(self, prev_index: int, prev_term: int) -> bool:
        """Raft's AppendEntries consistency check."""
        if prev_index == 0:
            return True
        if prev_index > self.last_index:
            return False
        return self.term_at(prev_index) == prev_term

    def is_up_to_date(self, last_index: int, last_term: int) -> bool:
        """Election restriction: is (last_index, last_term) >= ours?"""
        if last_term != self.last_term:
            return last_term > self.last_term
        return last_index >= self.last_index

    def all_entries(self) -> List[LogEntry]:
        return list(self._entries)
