"""Distribution substrate (paper section 2.4).

"Any single protocol built into a middleware platform is inadequate for
remote transmission of information flows with a variety of QoS
requirements.  However, different transport protocols can be easily
integrated into the Infopipe framework as netpipes."

Since no real network is available (or desirable) in a deterministic
reproduction, :mod:`repro.net.network` implements a discrete-event network
simulator — links with bandwidth, propagation delay, jitter, loss, and
drop-tail queues — on the same virtual clock as the pipelines.  On top of
it:

* :mod:`repro.net.protocols` — an unreliable datagram protocol and a
  reliable, in-order stream protocol (ack + retransmit);
* :mod:`repro.net.netpipe` — the netpipe component pair carrying a plain
  byte flow between nodes;
* :mod:`repro.net.marshal` — marshalling filters translating item flows to
  byte flows and back, with a compact binary codec;
* :mod:`repro.net.node` / :mod:`repro.net.remote` — nodes, remote component
  factories, remote Typespec queries and the binding helper that splices a
  marshal→netpipe→unmarshal segment into a pipeline.
"""

from repro.net.links import Link
from repro.net.marshal import (
    MarshalFilter,
    UnmarshalFilter,
    decode_item,
    encode_item,
    register_codec,
)
from repro.net.netpipe import (
    NetpipeReceiver,
    NetpipeSender,
    make_netpipe,
    make_netpipe_over,
)
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packets import Packet
from repro.net.protocols import DatagramProtocol, StreamProtocol
from repro.net.qosmap import bandwidth_demand, netpipe_flow_props
from repro.net.remote import RemoteBinder, RemoteFactory
from repro.net.socketlink import InProcessLink, SocketLink

__all__ = [
    "DatagramProtocol",
    "InProcessLink",
    "Link",
    "MarshalFilter",
    "NetpipeReceiver",
    "NetpipeSender",
    "Network",
    "Node",
    "Packet",
    "RemoteBinder",
    "RemoteFactory",
    "SocketLink",
    "StreamProtocol",
    "UnmarshalFilter",
    "bandwidth_demand",
    "decode_item",
    "encode_item",
    "make_netpipe",
    "make_netpipe_over",
    "netpipe_flow_props",
    "register_codec",
]
