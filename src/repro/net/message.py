"""Message taxonomy and wire sizes for COCA/GroCoCa.

The protocols of Sections III and IV exchange the message kinds below.  Wire
sizes follow the paper where legible (data items are ``DataSize`` bytes) and
use small fixed control-message sizes otherwise; all sizes are configurable
via :class:`MessageSizes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Any, Dict, List, Optional

__all__ = ["Message", "MessageKind", "MessageSizes"]


class MessageKind(Enum):
    """Every message type used by COCA (III) and GroCoCa (IV)."""

    HELLO = auto()  # NDP beacon
    REQUEST = auto()  # P2P broadcast: "who caches item d?"
    REPLY = auto()  # P2P ptp: "I do"
    RETRIEVE = auto()  # P2P ptp: "send it to me"
    DATA = auto()  # P2P ptp: the data item
    SIG_REQUEST = auto()  # GroCoCa: ask TCG members for cache signatures
    SIG_REPLY = auto()  # GroCoCa: a (possibly compressed) cache signature
    SERVER_REQUEST = auto()  # uplink: pull an item from the MSS
    SERVER_REPLY = auto()  # downlink: item + TTL + TCG membership changes
    VALIDATE = auto()  # uplink: is my cached copy still fresh?
    VALIDATE_OK = auto()  # downlink: your copy is valid
    EXPLICIT_UPDATE = auto()  # uplink: idle-period location/history report
    MEMBERSHIP_SYNC = auto()  # uplink: TCG resync after reconnection


@dataclass(frozen=True)
class MessageSizes:
    """Wire sizes in bytes.

    ``data`` is the payload size of one database item (Table II's DataSize);
    a DATA or SERVER_REPLY message is ``header + data`` bytes.  Signature
    messages are sized by the (compressed) signature they carry and passed
    explicitly.
    """

    data: int = 3072
    header: int = 32
    hello: int = 32
    request: int = 64
    reply: int = 48
    retrieve: int = 48
    server_request: int = 96  # carries the piggybacked (x, y) location
    validate: int = 64
    validate_ok: int = 48
    sig_request: int = 64
    explicit_update_base: int = 96
    membership_sync: int = 64
    membership_entry: int = 8  # per TCG-change entry piggybacked downstream

    def data_message(self) -> int:
        return self.header + self.data

    def server_reply(self, membership_changes: int = 0) -> int:
        return self.header + self.data + membership_changes * self.membership_entry

    def sig_reply(self, signature_bytes: int) -> int:
        return self.header + signature_bytes


@dataclass(slots=True)
class Message:
    """One protocol message.

    ``src``/``dst`` are client indices; ``dst`` is ``None`` for a P2P
    broadcast.  ``path`` records the forwarding chain of a flooded REQUEST so
    replies and retrievals can be routed back hop-by-hop.
    """

    kind: MessageKind
    src: int
    dst: Optional[int]
    size: int
    payload: Dict[str, Any] = field(default_factory=dict)
    created_at: float = 0.0
    hops_left: int = 0
    path: List[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.size > 0:  # not `size <= 0`: that is False for NaN
            raise ValueError(f"message size must be positive, got {self.size}")
