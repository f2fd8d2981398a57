"""Figure 3: marshal -> network -> marshal.

Benchmarks the distributed pipeline and regenerates the transport
comparison: the datagram netpipe loses items on a lossy link while the
stream netpipe converts the same loss into latency (retransmission).
"""

import pytest

from repro import CollectSink, Engine, GreedyPump, IterSource, Pipeline, connect
from repro.net import Network, Node, RemoteBinder

ITEMS = 60


def run_transfer(protocol: str, loss_rate: float, seed: int = 11):
    network = Network(seed=seed)
    network.add_link(
        "alpha", "beta",
        bandwidth_bps=5_000_000, delay=0.01, loss_rate=loss_rate,
        queue_packets=256,
    )
    alpha, beta = Node("alpha", network), Node("beta", network)
    src = alpha.place(IterSource([("item", i, b"x" * 400)
                                  for i in range(ITEMS)]))
    sink = beta.place(CollectSink())
    pump2 = GreedyPump()
    consumer = Pipeline([pump2, sink])
    connect(pump2.out_port, sink.in_port)
    pipe = RemoteBinder(network).bind(
        src >> ClockedPumpFactory(), consumer, "alpha", "beta",
        flow=f"bench-{protocol}-{loss_rate}-{seed}", protocol=protocol,
    )
    engine = Engine(pipe)
    engine.start()
    engine.run(until=30.0)
    engine.stop()
    engine.run(max_steps=200_000)
    return len(sink.items), engine.now()


def ClockedPumpFactory():
    from repro import ClockedPump

    return ClockedPump(50)


def test_bench_fig3_stream_transfer(benchmark):
    benchmark.pedantic(
        run_transfer, args=("stream", 0.05), rounds=3, iterations=1
    )


def test_fig3_transport_tradeoff():
    print("\n--- Figure 3: transport protocols on a 10% lossy link ---")
    datagram_clean, t_dg_clean = run_transfer("datagram", 0.0)
    stream_clean, t_st_clean = run_transfer("stream", 0.0)
    datagram_lossy, _ = run_transfer("datagram", 0.10)
    stream_lossy, t_st_lossy = run_transfer("stream", 0.10)
    print(f"{'protocol':10} {'loss':>5} {'delivered':>10}")
    print(f"{'datagram':10} {'0%':>5} {datagram_clean:>10}")
    print(f"{'stream':10} {'0%':>5} {stream_clean:>10}")
    print(f"{'datagram':10} {'10%':>5} {datagram_lossy:>10}")
    print(f"{'stream':10} {'10%':>5} {stream_lossy:>10}")

    assert datagram_clean == stream_clean == ITEMS
    assert datagram_lossy < ITEMS            # loss stays loss
    assert stream_lossy == ITEMS             # loss becomes latency
    assert t_st_lossy >= t_st_clean          # ... paid in time
