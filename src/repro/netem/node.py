"""Hosts, routers, and static routing for the emulated network.

The paper's testbed is tiny — client, router, server, sometimes a proxy in
the middle, sometimes several client/server pairs sharing one bottleneck.
This module provides just enough network layer for those topologies:
nodes connected by unidirectional :class:`~repro.netem.link.Link` pairs,
with static shortest-path routes (weighted by propagation delay) computed
once after the topology is built.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .link import Link
from .packet import Packet
from .sim import Simulator

PacketHandler = Callable[[Packet], None]


class Node:
    """A network node: forwards packets along precomputed routes.

    Hosts are nodes with a registered local handler; routers are nodes
    without one.  A node with no route for a destination silently drops
    the packet and counts it in :attr:`no_route_drops` (mirroring a real
    router's behaviour with an unknown prefix).
    """

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        #: Next-hop link per destination node name.
        self.routes: Dict[str, Link] = {}
        self._local_handler: Optional[PacketHandler] = None
        self.no_route_drops = 0

    # -- wiring ---------------------------------------------------------
    def register_handler(self, handler: PacketHandler) -> None:
        """Install the local delivery handler (makes this node a host)."""
        self._local_handler = handler

    # -- data path ------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Originate, forward or deliver a packet.

        The node's one entry: its own endpoints send through it and every
        attached link delivers into it, so a router hop is this call and
        the next link's ``send``.
        """
        dst = packet.dst
        if dst == self.name:
            handler = self._local_handler
            if handler is None:
                self.no_route_drops += 1
                return
            handler(packet)
            return
        link = self.routes.get(dst)
        if link is None:
            self.no_route_drops += 1
            return
        link.send(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "host" if self._local_handler else "router"
        return f"<Node {self.name} ({kind})>"


class Network:
    """Builds a topology of nodes and duplex links and routes packets.

    Example::

        net = Network(sim)
        client = net.add_node("client")
        router = net.add_node("router")
        server = net.add_node("server")
        net.duplex_link("client", "router", rate_bps=mbps(100), delay=0.001)
        net.duplex_link("router", "server", rate_bps=mbps(10), delay=0.017)
        net.build_routes()

    Routes are static shortest paths minimising cumulative configured
    propagation delay (ties broken by hop count, then name, for
    determinism).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        #: (src_name, dst_name) -> Link for every unidirectional link.
        self.links: Dict[Tuple[str, str], Link] = {}

    # -- construction ----------------------------------------------------
    def add_node(self, name: str) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(self, name)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def duplex_link(self, a: str, b: str, **link_kwargs) -> Tuple[Link, Link]:
        """Create a pair of unidirectional links ``a -> b`` and ``b -> a``.

        Keyword arguments are passed to :class:`Link` for both directions.
        Returns the ``(a_to_b, b_to_a)`` pair so callers can reconfigure
        directions independently (e.g. asymmetric cellular rates).
        """
        if a not in self.nodes or b not in self.nodes:
            raise KeyError("both endpoints must be added before linking")
        forward = Link(self.sim, name=f"{a}->{b}", **link_kwargs)
        backward = Link(self.sim, name=f"{b}->{a}", **link_kwargs)
        forward.attach(self.nodes[b].send)
        backward.attach(self.nodes[a].send)
        self.links[(a, b)] = forward
        self.links[(b, a)] = backward
        return forward, backward

    def build_routes(self) -> None:
        """Compute static shortest-path routes for every node pair."""
        adjacency: Dict[str, List[Tuple[str, float]]] = {n: [] for n in self.nodes}
        for (src, dst), link in self.links.items():
            adjacency[src].append((dst, link.delay))
        for origin in self.nodes:
            dist, first_hop = self._dijkstra(origin, adjacency)
            node = self.nodes[origin]
            node.routes = {
                dst: self.links[(origin, hop)]
                for dst, hop in first_hop.items()
                if dst != origin
            }
            del dist

    def _dijkstra(
        self, origin: str, adjacency: Dict[str, List[Tuple[str, float]]]
    ) -> Tuple[Dict[str, float], Dict[str, str]]:
        """Plain Dijkstra returning distances and the *first hop* per dest."""
        import heapq

        dist: Dict[str, float] = {origin: 0.0}
        first_hop: Dict[str, str] = {}
        # (distance, hop_count, tie-break name, node, first_hop_from_origin)
        heap: List[Tuple[float, int, str, str, Optional[str]]] = [
            (0.0, 0, origin, origin, None)
        ]
        visited = set()
        while heap:
            d, hops, _, here, hop0 = heapq.heappop(heap)
            if here in visited:
                continue
            visited.add(here)
            if hop0 is not None:
                first_hop[here] = hop0
            for neighbour, weight in sorted(adjacency[here]):
                if neighbour in visited:
                    continue
                nd = d + weight
                if nd < dist.get(neighbour, float("inf")):
                    dist[neighbour] = nd
                    heapq.heappush(
                        heap,
                        (nd, hops + 1, neighbour, neighbour,
                         neighbour if hop0 is None else hop0),
                    )
        return dist, first_hop
