"""Network nodes: hosts and routers.

Routing is static: the topology computes a next-hop link per destination
host for every node (shortest path), so the forwarding step is a single
dictionary lookup.  Hosts demultiplex arriving packets to transport
endpoints by flow id.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from repro.errors import TopologyError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.telemetry.schema import EV_PKT_SEND

__all__ = ["Endpoint", "Node", "Host", "Router"]


class Endpoint(Protocol):
    """Anything a host can deliver packets to (transport endpoints)."""

    def on_packet(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class Node:
    """Base node: owns a next-hop table of destination host -> link."""

    #: True for transit nodes that forward every received packet; the
    #: batched link datapath keys cut-through planning on this (a
    #: delivery to a non-forwarding node always terminates the chain).
    FORWARDS = False

    def __init__(self, sim, name: str) -> None:
        self.sim = sim
        self.name = name
        self.routes: Dict[str, Link] = {}

    def route_for(self, dst: str) -> Link:
        """Next-hop link toward host ``dst``."""
        link = self.routes.get(dst)
        if link is None:
            raise TopologyError(f"{self.name}: no route to {dst!r}")
        return link

    def forward(self, packet: Packet) -> None:
        """Send ``packet`` one hop toward its destination."""
        packet.hops += 1
        if packet.hops > 64:
            raise TopologyError(f"routing loop detected for {packet.describe()}")
        self.route_for(packet.dst).send(packet)

    def receive(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Router(Node):
    """A store-and-forward router: every received packet is forwarded."""

    FORWARDS = True

    def receive(self, packet: Packet) -> None:
        if packet.dst == self.name:
            raise TopologyError(f"router {self.name} cannot terminate flows")
        self.forward(packet)


class Host(Node):
    """An end host: terminates flows and originates packets.

    Transport endpoints register themselves per flow id; packets for
    unknown flows are handed to ``default_handler`` if set (used by
    listening servers to spawn receivers on SYN), otherwise dropped and
    counted.
    """

    def __init__(self, sim, name: str) -> None:
        super().__init__(sim, name)
        self._endpoints: Dict[int, Endpoint] = {}
        self.default_handler: Optional[Callable[[Packet], None]] = None
        self.orphan_packets = 0
        # Cached recorder (rebound when sim.trace is reassigned) so the
        # per-packet lineage guard in send() is a single attribute check.
        self._trace = sim.trace
        sim.watch_trace(self._rebind_trace)

    def _rebind_trace(self, recorder) -> None:
        self._trace = recorder

    # ------------------------------------------------------------------
    # Endpoint registry
    # ------------------------------------------------------------------

    def register(self, flow_id: int, endpoint: Endpoint) -> None:
        """Bind ``endpoint`` to ``flow_id``; at most one per flow."""
        if flow_id in self._endpoints:
            raise TopologyError(f"{self.name}: flow {flow_id} already bound")
        self._endpoints[flow_id] = endpoint

    def unregister(self, flow_id: int) -> None:
        """Remove the binding for ``flow_id`` (idempotent)."""
        self._endpoints.pop(flow_id, None)

    def endpoint_for(self, flow_id: int) -> Optional[Endpoint]:
        """The endpoint bound to ``flow_id``, if any."""
        return self._endpoints.get(flow_id)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Originate ``packet`` from this host."""
        if packet.src != self.name:
            raise TopologyError(
                f"{self.name} asked to send packet with src={packet.src!r}"
            )
        trace = self._trace
        if trace.lineage:
            # Span creation: every packet's life starts here, with enough
            # header detail for the audit checkers to work stream-only.
            trace.record(
                self.sim.now, EV_PKT_SEND, self.name,
                type=packet.kind.value, dst=packet.dst, seq=packet.seq,
                ack=packet.ack, sack=packet.sack,
                retransmit=packet.retransmit,
                proactive=packet.proactive, **packet.lineage_detail(),
            )
        # forward() -> route_for() -> send(), inlined: every segment and
        # ACK a transport endpoint emits enters the network here.
        packet.hops += 1
        if packet.hops > 64:
            raise TopologyError(f"routing loop detected for {packet.describe()}")
        link = self.routes.get(packet.dst)
        if link is None:
            raise TopologyError(f"{self.name}: no route to {packet.dst!r}")
        link.send(packet)

    def receive(self, packet: Packet) -> None:
        if packet.dst != self.name:
            # Hosts are not transit nodes in any topology we build.
            raise TopologyError(
                f"host {self.name} received transit packet for {packet.dst!r}"
            )
        endpoint = self._endpoints.get(packet.flow_id)
        if endpoint is not None:
            endpoint.on_packet(packet)
        elif self.default_handler is not None:
            self.default_handler(packet)
        else:
            self.orphan_packets += 1
