"""Network substrate: packets, headers, links, switch, topology."""

from .headers import (
    EthernetHeader,
    Header,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    RdmaHeader,
    RpcHeader,
    STANDARD_HEADERS,
    ServerHdr,
    TCPHeader,
    UDPHeader,
    header_class,
)
from .link import Link, LinkStats, Train
from .message import Message, Segment, Segments
from .network import Network, Node, TEN_GBPS
from .packet import DEADLINE_META, Packet, reset_packet_ids
from .switch import Switch

__all__ = [
    "DEADLINE_META",
    "EthernetHeader",
    "Header",
    "HeaderStack",
    "IPv4Header",
    "LambdaHeader",
    "Link",
    "LinkStats",
    "Message",
    "Network",
    "Node",
    "Packet",
    "RdmaHeader",
    "RpcHeader",
    "STANDARD_HEADERS",
    "Segment",
    "Segments",
    "ServerHdr",
    "Switch",
    "TCPHeader",
    "TEN_GBPS",
    "Train",
    "UDPHeader",
    "header_class",
    "reset_packet_ids",
]
