"""NIC-side packet reordering for multi-packet RPCs (paper fn. 3).

λ-NIC performs packet reordering at the SmartNIC for multi-packet
messages; the paper measured 120 instructions to reorder four 100 B
packets (~1.3 % of a benchmark lambda). :class:`ReorderBuffer` provides
the mechanism plus that cost model.

Segments arrive one at a time (:meth:`ReorderBuffer.add`) or as a train
of one message's segments in arrival order
(:meth:`ReorderBuffer.add_train`), which leaves the buffer exactly as
adding them one by one would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Instructions per segment, from the paper's measurement (120 / 4).
REORDER_INSTRUCTIONS_PER_SEGMENT = 30


class ReorderError(ValueError):
    """Raised on inconsistent segment metadata."""


@dataclass
class _Message:
    total: int
    segments: Dict[int, Any] = field(default_factory=dict)
    out_of_order: int = 0
    highest_seen: int = -1


class ReorderBuffer:
    """Collects out-of-order segments into complete, ordered messages.

    Keyed by an arbitrary message id (e.g. ``(src, request_id)``).
    ``add`` returns the ordered list of items once the message is
    complete, else None.
    """

    def __init__(self) -> None:
        self._messages: Dict[Any, _Message] = {}
        self.completed_messages = 0
        self.total_segments = 0
        self.duplicate_segments = 0

    def add(self, message_id: Any, seq: int, total: int,
            item: Any) -> Optional[List[Any]]:
        if total <= 0:
            raise ReorderError("total must be positive")
        if not 0 <= seq < total:
            raise ReorderError(f"seq {seq} outside [0, {total})")
        message = self._messages.get(message_id)
        if message is None:
            message = _Message(total=total)
            self._messages[message_id] = message
        elif message.total != total:
            raise ReorderError(
                f"message {message_id!r}: total changed "
                f"{message.total} -> {total}"
            )
        if seq in message.segments:
            self.duplicate_segments += 1
            return None
        self.total_segments += 1
        if seq < message.highest_seen:
            message.out_of_order += 1
        message.highest_seen = max(message.highest_seen, seq)
        message.segments[seq] = item
        if len(message.segments) < total:
            return None
        del self._messages[message_id]
        self.completed_messages += 1
        return [message.segments[index] for index in range(total)]

    def add_train(self, message_id: Any, total: int, seqs: List[int],
                  items: List[Any]) -> List[Tuple[int, List[Any]]]:
        """Add one message's segments in arrival order, in one call.

        Equivalent to ``add`` per segment. Returns ``(index, ordered)``
        for each completion, ``index`` being the completing segment's
        position in the train (a segment after a completion starts the
        message again, as ``add`` would).
        """
        if total <= 0:
            raise ReorderError("total must be positive")
        completed: List[Tuple[int, List[Any]]] = []
        messages = self._messages
        message = messages.get(message_id)
        if message is not None and message.total != total:
            raise ReorderError(
                f"message {message_id!r}: total changed "
                f"{message.total} -> {total}"
            )
        for index, seq in enumerate(seqs):
            if not 0 <= seq < total:
                raise ReorderError(f"seq {seq} outside [0, {total})")
            if message is None:
                message = messages[message_id] = _Message(total=total)
            segments = message.segments
            if seq in segments:
                self.duplicate_segments += 1
                continue
            self.total_segments += 1
            if seq < message.highest_seen:
                message.out_of_order += 1
            if seq > message.highest_seen:
                message.highest_seen = seq
            segments[seq] = items[index]
            if len(segments) == total:
                del messages[message_id]
                self.completed_messages += 1
                completed.append(
                    (index, [segments[seq] for seq in range(total)]))
                message = None
        return completed

    def highest_seq(self, message_id: Any) -> int:
        """The highest segment seq buffered for a message, or -1."""
        message = self._messages.get(message_id)
        return -1 if message is None else message.highest_seen

    def pending(self, message_id: Any) -> int:
        """Segments still missing for an in-flight message (0 if unknown)."""
        message = self._messages.get(message_id)
        if message is None:
            return 0
        return message.total - len(message.segments)

    @property
    def in_flight(self) -> int:
        return len(self._messages)

    def instructions_for(self, total_segments: int) -> int:
        """The paper's reordering cost for one message."""
        return REORDER_INSTRUCTIONS_PER_SEGMENT * total_segments

    def evict(self, message_id: Any) -> int:
        """Drop an in-flight message (sender gave up); returns segments lost."""
        message = self._messages.pop(message_id, None)
        return len(message.segments) if message else 0
