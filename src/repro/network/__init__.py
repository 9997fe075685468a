"""The wired backbone between base stations.

The paper's system model (Section 2.2): "the geographical area covered
by a wireless network is divided into overlapping cells ... the base
station is the central unit of the cell and is connected to one another
to form a wired point-to-point backbone network ... the base station
receives data packets from all mobile subscribers and forwards them to
their destinations."

:mod:`repro.network.backbone` is that wired point-to-point backbone:
FIFO links with propagation latency and serialization bandwidth.  The
multi-cell model built on it -- inter-cell forwarding, paging-backed
buffering of not-yet-registered destinations and handoff -- is
:class:`repro.shard.shard.ShardSim`; ``repro network`` runs it as a
one-shard city.

The backbone operates at message granularity: the paper does not define
a wire format for the inter-BS network, so destination addressing is
simulation-level metadata (see DESIGN.md section 6).
"""

from repro.network.backbone import Backbone, BackboneLink

__all__ = ["Backbone", "BackboneLink"]
