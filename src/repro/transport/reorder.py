"""NIC-side packet reordering for multi-packet RPCs (paper fn. 3).

λ-NIC performs packet reordering at the SmartNIC for multi-packet
messages; the paper measured 120 instructions to reorder four 100 B
packets (~1.3 % of a benchmark lambda). :class:`ReorderBuffer` provides
the mechanism plus that cost model.

Segments arrive one at a time (:meth:`ReorderBuffer.add`), as a train
of one message's consecutive segments in arrival order
(:meth:`ReorderBuffer.add_train`), or as a *run*: consecutive segments
that stay one entry (:meth:`ReorderBuffer.add_run`), such as an RDMA
message's view. Each leaves the buffer and its counters exactly as
adding the segments one by one would. A whole message that arrives as
one run into an empty slot completes in one step, with nothing stored.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Instructions per segment, from the paper's measurement (120 / 4).
REORDER_INSTRUCTIONS_PER_SEGMENT = 30


class ReorderError(ValueError):
    """Raised on inconsistent segment metadata."""


class _Message:
    """The segments of one message received so far."""

    __slots__ = ("total", "segments", "runs", "received", "out_of_order",
                 "highest_seen")

    def __init__(self, total: int) -> None:
        self.total = total
        #: seq -> item, for segments added one at a time.
        self.segments: Dict[int, Any] = {}
        #: (first seq, run) for runs kept whole.
        self.runs: List[Tuple[int, Sequence]] = []
        self.received = 0
        self.out_of_order = 0
        self.highest_seen = -1

    def holds(self, seq: int) -> bool:
        if seq in self.segments:
            return True
        for first, run in self.runs:
            if first <= seq < first + len(run):
                return True
        return False

    def overlaps(self, first: int, end: int) -> bool:
        """Whether any of seqs ``first..end - 1`` is held."""
        for seq in self.segments:
            if first <= seq < end:
                return True
        for start, run in self.runs:
            if start < end and first < start + len(run):
                return True
        return False

    def ordered(self) -> List[Any]:
        """The items and runs in seq order."""
        entries = list(self.segments.items()) + self.runs
        entries.sort(key=itemgetter(0))
        return [entry for _, entry in entries]


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
        completed = self.add_train(message_id, total, seq, (item,))
        return completed[0][1] if completed else None

    def _open(self, message_id: Any, total: int, first_seq: int,
              count: int) -> Optional[_Message]:
        """Check a train's seqs and total; the message so far, if any."""
        if total <= 0:
            raise ReorderError("total must be positive")
        if first_seq < 0 or first_seq + count > total:
            raise ReorderError(
                f"seqs {first_seq}..{first_seq + count - 1} outside "
                f"[0, {total})")
        message = self._messages.get(message_id)
        if message is not None and message.total != total:
            raise ReorderError(
                f"message {message_id!r}: total changed "
                f"{message.total} -> {total}"
            )
        return message

    def _complete(self, message_id: Any, message: _Message) -> List[Any]:
        del self._messages[message_id]
        self.completed_messages += 1
        return message.ordered()

    def add_train(self, message_id: Any, total: int, first_seq: int,
                  items: Sequence[Any]) -> List[Tuple[int, List[Any]]]:
        """Add one message's segments ``first_seq..`` in arrival order,
        one item each, in one call.

        Equivalent to ``add`` per segment. Returns ``(index, ordered)``
        for each completion, ``index`` being the completing segment's
        position in the train (a segment after a completion starts the
        message again, as ``add`` would).
        """
        message = self._open(message_id, total, first_seq, len(items))
        completed: List[Tuple[int, List[Any]]] = []
        messages = self._messages
        for index, item in enumerate(items):
            seq = first_seq + index
            if message is None:
                message = messages[message_id] = _Message(total)
            if message.holds(seq):
                self.duplicate_segments += 1
                continue
            self.total_segments += 1
            if seq < message.highest_seen:
                message.out_of_order += 1
            if seq > message.highest_seen:
                message.highest_seen = seq
            message.segments[seq] = item
            message.received += 1
            if message.received == total:
                completed.append((index, self._complete(message_id,
                                                        message)))
                message = None
        return completed

    def add_run(self, message_id: Any, total: int, first_seq: int,
                run: Sequence[Any]) -> List[Tuple[int, List[Any]]]:
        """Add ``run``, standing for segments ``first_seq..first_seq +
        len(run) - 1`` in arrival order, as one entry of the ordered
        result.

        Buffer and counters end as with :meth:`add_train`. A run that
        overlaps segments already held is added item by item
        (``run[k]``), as :meth:`add_train` would.
        """
        count = len(run)
        message = self._open(message_id, total, first_seq, count)
        end = first_seq + count
        if message is not None and message.overlaps(first_seq, end):
            return self.add_train(message_id, total, first_seq, run)
        self.total_segments += count
        if message is None:
            if count == total:
                self.completed_messages += 1
                return [(count - 1, [run])]
            message = self._messages[message_id] = _Message(total)
        else:
            # No seq is held twice, so the seqs below the highest seen
            # are the ones that arrive out of order.
            message.out_of_order += max(
                0, min(count, message.highest_seen - first_seq))
        message.runs.append((first_seq, run))
        message.received += count
        if end - 1 > message.highest_seen:
            message.highest_seen = end - 1
        if message.received == total:
            return [(count - 1, self._complete(message_id, message))]
        return []

    def highest_seq(self, message_id: Any) -> int:
        """The highest segment seq buffered for a message, or -1."""
        message = self._messages.get(message_id)
        return -1 if message is None else message.highest_seen

    def pending(self, message_id: Any) -> int:
        """Segments still missing for an in-flight message (0 if unknown)."""
        message = self._messages.get(message_id)
        if message is None:
            return 0
        return message.total - message.received

    @property
    def in_flight(self) -> int:
        return len(self._messages)

    def instructions_for(self, total_segments: int) -> int:
        """The paper's reordering cost for one message."""
        return REORDER_INSTRUCTIONS_PER_SEGMENT * total_segments

    def evict(self, message_id: Any) -> int:
        """Drop an in-flight message (sender gave up); returns segments lost."""
        message = self._messages.pop(message_id, None)
        return message.received if message else 0
