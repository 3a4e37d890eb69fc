"""Packet header machinery and the standard header stack.

Headers are lightweight field containers with a declared byte size, so
packet sizes (and thus serialization delays) are accounted for exactly.
The λ-NIC gateway prepends a :class:`LambdaHeader` carrying the workload
ID that the NIC's match stage dispatches on (paper §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict, Optional, Tuple


@dataclass
class Header:
    """Base class for all headers; subclasses declare ``BYTES``.

    ``FIELD_RANGES`` declares the on-wire value range of each numeric
    field (inclusive ``(lo, hi)``), i.e. what the field's bit width in
    the packet format guarantees. The static verifier seeds its interval
    analysis from these declarations, so keep them faithful to the wire
    encoding; fields that are not listed (strings, unconstrained values)
    are treated as unknown.
    """

    BYTES: ClassVar[int] = 0
    FIELD_RANGES: ClassVar[Dict[str, Tuple[int, int]]] = {}
    #: The header's type name, set once per class.
    name: ClassVar[str] = "Header"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.name = cls.__name__

    @property
    def size_bytes(self) -> int:
        return self.BYTES

    def field_names(self) -> list:
        """The dataclass field names, as a fresh list."""
        names = _FIELD_NAMES.get(type(self))
        if names is None:
            names = _FIELD_NAMES[type(self)] = tuple(
                f.name for f in fields(self))
        return list(names)


#: Field names per header class, filled on first use (``dataclass``
#: runs after ``__init_subclass__``, so the fields are not known there).
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


@dataclass
class EthernetHeader(Header):
    """L2 header."""

    BYTES: ClassVar[int] = 14
    FIELD_RANGES: ClassVar[Dict[str, Tuple[int, int]]] = {
        "ethertype": (0, 0xFFFF),
    }
    src_mac: str = ""
    dst_mac: str = ""
    ethertype: int = 0x0800


@dataclass
class IPv4Header(Header):
    """L3 header (options-free)."""

    BYTES: ClassVar[int] = 20
    FIELD_RANGES: ClassVar[Dict[str, Tuple[int, int]]] = {
        "protocol": (0, 0xFF),
        "ttl": (0, 0xFF),
    }
    src_ip: str = ""
    dst_ip: str = ""
    protocol: int = 17
    ttl: int = 64


@dataclass
class UDPHeader(Header):
    """L4 datagram header."""

    BYTES: ClassVar[int] = 8
    FIELD_RANGES: ClassVar[Dict[str, Tuple[int, int]]] = {
        "src_port": (0, 0xFFFF),
        "dst_port": (0, 0xFFFF),
        "length": (0, 0xFFFF),
    }
    src_port: int = 0
    dst_port: int = 0
    length: int = 0


@dataclass
class TCPHeader(Header):
    """L4 stream header (used only by host-backend cost modelling)."""

    BYTES: ClassVar[int] = 20
    FIELD_RANGES: ClassVar[Dict[str, Tuple[int, int]]] = {
        "src_port": (0, 0xFFFF),
        "dst_port": (0, 0xFFFF),
        "seq": (0, 0xFFFFFFFF),
        "ack": (0, 0xFFFFFFFF),
        "flags": (0, 0x1FF),
    }
    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = 0


@dataclass
class LambdaHeader(Header):
    """λ-NIC dispatch header inserted by the gateway (paper §4.1).

    ``wid`` selects the lambda in the NIC's match stage. ``request_id``
    pairs responses with requests; ``seq``/``total_segments`` support
    multi-packet RPCs that are reordered on the NIC (paper fn. 3).
    """

    BYTES: ClassVar[int] = 16
    FIELD_RANGES: ClassVar[Dict[str, Tuple[int, int]]] = {
        "wid": (0, 0xFFFFFFFF),
        "request_id": (0, 0xFFFFFFFF),
        "seq": (0, 0xFFFF),
        "total_segments": (1, 0xFFFF),
        "is_response": (0, 1),
    }
    wid: int = 0
    request_id: int = 0
    seq: int = 0
    total_segments: int = 1
    is_response: bool = False


@dataclass
class RpcHeader(Header):
    """Application RPC header: method + tiny key/value scratch fields."""

    BYTES: ClassVar[int] = 24
    FIELD_RANGES: ClassVar[Dict[str, Tuple[int, int]]] = {
        "status": (0, 0xFFFF),
    }
    method: str = ""
    key: str = ""
    status: int = 0


@dataclass
class RdmaHeader(Header):
    """RoCEv2-style RDMA write header (BTH + RETH, abbreviated)."""

    BYTES: ClassVar[int] = 28
    FIELD_RANGES: ClassVar[Dict[str, Tuple[int, int]]] = {
        "remote_address": (0, 2**64 - 1),
        "length": (0, 0xFFFFFFFF),
        "qp": (0, 0xFFFFFF),
    }
    opcode: str = "WRITE"
    remote_address: int = 0
    length: int = 0
    qp: int = 0


@dataclass
class ServerHdr(Header):
    """The web-server workload's response-address header (Listing 2)."""

    BYTES: ClassVar[int] = 8
    FIELD_RANGES: ClassVar[Dict[str, Tuple[int, int]]] = {
        "address": (0, 2**64 - 1),
    }
    address: int = 0


STANDARD_HEADERS = (
    EthernetHeader,
    IPv4Header,
    UDPHeader,
    TCPHeader,
    LambdaHeader,
    RpcHeader,
    RdmaHeader,
    ServerHdr,
)

_BY_NAME = {cls.__name__: cls for cls in STANDARD_HEADERS}


def header_class(name: str) -> type:
    """Look up a standard header class by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown header type {name!r}") from None


def declared_field_range(header: str, field_name: str) -> Optional[Tuple[int, int]]:
    """The declared ``(lo, hi)`` wire range of a standard header field.

    Returns None for unknown headers and undeclared fields — the caller
    (the verifier's interval analysis) must treat those as unbounded.
    """
    cls = _BY_NAME.get(header)
    if cls is None:
        return None
    return cls.FIELD_RANGES.get(field_name)


class HeaderStack:
    """An ordered collection of headers with name-based access.

    The wire size is kept as a running total of the per-class ``BYTES``
    that every mutation updates, so ``size_bytes`` is O(1) per hop.
    """

    def __init__(self, headers=()) -> None:
        self._headers = list(headers)
        size = 0
        for header in self._headers:
            size += header.BYTES
        self._size = size

    def push(self, header: Header) -> None:
        """Append ``header`` as the innermost header."""
        self._headers.append(header)
        self._size += header.BYTES

    def insert_after(self, name: str, header: Header) -> None:
        """Insert ``header`` right after the header named ``name``."""
        for index, existing in enumerate(self._headers):
            if existing.name == name:
                self._headers.insert(index + 1, header)
                self._size += header.BYTES
                return
        raise KeyError(f"no header named {name!r}")

    def get(self, name: str):
        """The first header of type ``name``, or None."""
        for header in self._headers:
            if header.name == name:
                return header
        return None

    def require(self, name: str) -> Header:
        """The first header of type ``name``; raises if absent."""
        header = self.get(name)
        if header is None:
            raise KeyError(f"packet has no {name} header")
        return header

    def remove(self, name: str) -> Header:
        """Remove and return the first header of type ``name``."""
        for index, existing in enumerate(self._headers):
            if existing.name == name:
                self._size -= existing.BYTES
                return self._headers.pop(index)
        raise KeyError(f"no header named {name!r}")

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self):
        return iter(self._headers)

    def __len__(self) -> int:
        return len(self._headers)

    @property
    def size_bytes(self) -> int:
        return self._size

    def copy(self) -> "HeaderStack":
        """Shallow-ish copy: every header is a new object with the same
        field values (what ``copy.copy`` does for these dataclasses)."""
        headers = []
        for header in self._headers:
            cls = type(header)
            clone = cls.__new__(cls)
            clone.__dict__.update(header.__dict__)
            headers.append(clone)
        stack = HeaderStack.__new__(HeaderStack)
        stack._headers = headers
        stack._size = self._size
        return stack

    def __repr__(self) -> str:
        names = "/".join(header.name for header in self._headers)
        return f"<HeaderStack {names}>"
