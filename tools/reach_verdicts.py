"""Verdicts for ``docs/REACH.md``: why each function no real driver
(D1-D4) reaches is still in ``src/repro`` — or that it no longer is.

``RULES`` is matched top to bottom against ``module:qualname``
(``fnmatch`` patterns, case-sensitive); the first match gives the row's
verdict and its "why".  A function no rule matches is ``UNDECIDED`` and
fails ``python tools/reach.py``, ``--check`` and the tier-1 guard: every
new row must be decided.  So a pattern names a function or a class and
says why *that* is kept; the only package-wide rule is ``repro.check.*``
(the checker's driver is the tests, by construction), and the module-wide
ones are *exception* rows, which the guard counts.

The *exception* rows are a debt list.  ``tests/core/test_reach_guard.py``
holds their number to at most what this file produced when ISSUE 21
landed: an exception is retired by the workload or PR it names (the row
becomes D1-D4-reached and disappears) or by deleting the code — never
joined by a new one.
"""

VERDICTS = {
    "verification": "checker, oracle, reference accessor, input validation, "
                    "error path or debugging aid: stays, the tests are its "
                    "driver.",
    "paper": "part of the reproduction no figure benchmark happens to run: "
             "stays, cites the section.",
    "tested here": "a contract that had no driver at all until ISSUE 21 "
                   "wrote its test (named in the row).",
    "exception": "a documented extension with no real driver: kept for now, "
                 "names the workload or PR it is owed; the list may only "
                 "shrink.",
    "deleted": "gone (listed under \"Deleted\" below the rows).",
}

OPEN_10K = ("owed ROADMAP 1(a) `fabric-open-10k` (open / park / unpark / "
            "close churn at a steady fleet)")
CROSSING = ("owed ROADMAP 3(a): an instrumented run with a coroutine "
            "crossing (`fig9a-obs` has none)")

RULES = [
    # ----------------------------------------------------------------- pile
    # (ii): contracts nothing had ever run; each now has a tier-1 test.
    ("repro.check.explorer:minimize_failure", "tested here",
     "`tests/check/test_explorer.py::test_minimize_failure_shrinks_a_"
     "recorded_failure`"),
    ("repro.check.refine:_sorted_union", "tested here",
     "`tests/check/test_refinement.py::test_lossy_union_*` (with its "
     "reordered mutant twin)"),
    ("repro.fabric.session:SessionFabric.run_with_io", "tested here",
     "`tests/fabric/test_fabric_e2e.py::TestSharedLink::"
     "test_fifty_sessions_one_socketpair`"),
    ("repro.fabric.session:Session.park", "tested here",
     "`tests/fabric/test_session.py::TestParking::test_unpark_resumes_to_"
     "completion` (the handle's own park / unpark / close)"),
    ("repro.fabric.session:Session.close", "tested here",
     "`tests/fabric/test_session.py::TestParking::test_unpark_resumes_to_"
     "completion`"),
    ("repro.mbt.scheduler:Scheduler.release_reservation", "tested here",
     "§3.1; `tests/mbt/test_scheduler.py::test_released_reservation_frees_"
     "its_fraction`"),
    ("repro.media.frames:_sample_*_fields", "tested here",
     "the `asample` codec; `tests/net/test_marshal.py::TestCustomCodecs::"
     "test_audio_sample_codec_registered`"),
    ("repro.components.filters:Gate.on_gate_open", "tested here",
     "`tests/runtime/test_events_runtime.py::TestStockHandlers`"),
    ("repro.net.mux:MuxStream.pump", "tested here",
     "`tests/net/test_mux.py::TestTransports::test_a_stream_and_its_mux_"
     "answer_the_io_source_interface`"),
    ("repro.net.mux:MuxStream.close", "tested here", "same test"),
    ("repro.net.mux:StreamMux.wait", "tested here", "same test"),
    ("repro.net.mux:StreamMux.should_stop", "tested here",
     "`tests/net/test_mux.py` (the io-loop test: a shared link never ends "
     "`drive_with_io` early)"),
    ("repro.obs.dashboard:Dashboard.run_curses", "tested here",
     "`tests/obs/test_dashboard.py::TestDashboardLoop::test_curses_loop_"
     "draws_clips_and_quits` (a scripted screen; CI has no terminal)"),

    # ---------------------------------------------------------------- pile
    # (iii): documented extensions with no real driver — the debt list.
    ("repro.fabric.session:SessionFabric.park", "exception", OPEN_10K),
    ("repro.fabric.session:SessionFabric.unpark", "exception", OPEN_10K),
    ("repro.fabric.session:Session.unpark", "exception", OPEN_10K),
    ("repro.mbt.scheduler:Scheduler.park_thread", "exception", OPEN_10K),
    ("repro.mbt.scheduler:Scheduler.unpark_thread", "exception", OPEN_10K),
    ("repro.mbt.scheduler:Scheduler.parked_threads", "exception", OPEN_10K),
    ("repro.obs.flow:Hand.depart", "exception", CROSSING),
    ("repro.obs.flow:Hand.arrive", "exception", CROSSING),
    ("repro.runtime.section:_item_data_count", "exception", CROSSING),
    ("repro.obs.sched:ThreadMeter.on_cpu", "exception",
     "owed ROADMAP 3(a): an instrumented run whose stages charge virtual "
     "CPU (`fig9a-obs` charges none)"),

    # --------------------------------------------------------------- paper
    ("repro.net.qosmap:bandwidth_demand", "paper",
     "§2.1: \"These components also encapsulate the QoS mapping of netpipe "
     "properties and information flow properties\" (a flow's rate and frame "
     "size as a bandwidth demand)"),
    ("repro.net.qosmap:link_admits", "paper",
     "§2.1: the QoS mapping (can a link carry that demand)"),
    ("repro.net.qosmap:_upper", "paper",
     "§2.1: the QoS mapping (a rate or size range's upper bound)"),
    ("repro.components.batch:Pu??Batcher.*", "paper",
     "§3.3: batching as components (the pre-batch-plane formulation the "
     "defragmenter rules are stated on)"),
    ("repro.components.batch:Pu??Unbatcher.*", "paper",
     "§3.3: batching as components, the inverse"),
    ("repro.components.frag:*Fragmenter.*", "paper",
     "Fig. 4-8: the fragmenter in all three activity styles (the figure "
     "benchmarks run the defragmenters)"),
    ("repro.components.frag:default_split", "paper",
     "Fig. 4-8: the fragmenters' default splitting function"),
    ("repro.components.tees:RoutingSwitch.*", "paper",
     "§2.2: the routing switch"),
    ("repro.components.tees:ActivityRouter.*", "paper",
     "§2.2: the activity router"),
    ("repro.obs.flow:TraceContext.fork", "paper",
     "§2.1 tees: a fan-out branch keeps its lineage (`Hand.take` forks the "
     "last context when a push underflows); `tests/obs/test_flow.py::"
     "TestPipelineTracing::test_fanout_forks_child_traces`"),
    ("repro.obs.flow:FlowTrace.parent", "paper",
     "§2.1 tees: the trace a fan-out branch forked from; same test"),
    ("repro.components.filters:SequenceStamp.*", "paper",
     "§2.1: loss measurement for the feedback toolkit"),
    ("repro.components.sinks:ActiveCollectSink.*", "paper",
     "§2.2: active sinks"),
    ("repro.components.sinks:NullSink.*", "paper", "§2.1: a sink"),
    ("repro.components.sources:CallbackSource.*", "paper",
     "§2.2: passive sources"),
    ("repro.components.sources:TickingSource.*", "paper",
     "§2.2: active sources with their own timing"),
    ("repro.core.polarity:Polarity.*", "paper",
     "§2.3: polarity algebra (`fixed`, `opposite`, the +/-/α spelling)"),
    ("repro.core.polarity:compatible", "paper", "§2.3: polarity algebra"),
    ("repro.core.polarity:mode_for", "paper",
     "§2.3: polarity algebra, the inverse of `polarity_for`"),
    ("repro.core.typespec:Typespec.compatible_with", "paper",
     "§2.3: Typespec subset queries"),
    ("repro.core.typespec:Typespec.is_subset_of", "paper",
     "§2.3: Typespec subset queries"),
    ("repro.core.typespec:Typespec.admits", "paper",
     "§2.3: Typespec subset queries"),
    ("repro.core.typespec:value_is_subset", "paper",
     "§2.3: Typespec subset queries"),
    ("repro.core.typespec:_values_equal", "paper",
     "§2.3: Typespec subset queries"),
    ("repro.core.typespec:Typespec.__eq__", "paper",
     "§2.3: Typespecs compare by value (the real drivers compare "
     "identities on the allocation-free path)"),
    ("repro.core.typespec:Typespec.__hash__", "paper",
     "§2.3: Typespecs compare by value"),
    ("repro.core.typespec:Choices.__init__", "paper",
     "§2.3: the Choices arm of the property algebra"),
    ("repro.core.typespec:_simplify_choices", "paper",
     "§2.3: the Choices arm of the property algebra"),
    ("repro.core.typespec:_intersect_choices_other", "paper",
     "§2.3: the Choices arm of the property algebra"),
    ("repro.core.typespec:Interval.__contains__", "paper",
     "§2.3: the Interval arm of the property algebra"),
    ("repro.core.typespec:_intersect_interval_scalar", "paper",
     "§2.3: the Interval arm of the property algebra"),
    ("repro.core.items:_Nil.__bool__", "paper",
     "§3.1: the nil item of a non-blocking buffer is falsy"),
    ("repro.core.glue:AllocationPlan.*", "paper",
     "Fig. 9: the allocation plan's report (threads, section of a "
     "component)"),
    ("repro.core.glue:SectionPlan.*", "paper",
     "Fig. 9: the allocation plan's report (stage of a component)"),
    ("repro.core.glue:_collect_handled", "paper",
     "§2.3: a component that sends control events needs a neighbour on "
     "that side that handles them (no real driver's component declares "
     "`events_sent_*`)"),
    ("repro.runtime.bridge:_*_thread_body", "paper",
     "§3.3: the OS-thread backend (`ablation_backends` runs the active "
     "style; these are its consumer / producer wrappers)"),
    ("repro.net.remote:RemoteFactory.*", "paper",
     "§2.4: the remote factory"),
    ("repro.net.remote:_any_other", "paper",
     "§2.4: the remote factory's Typespec wildcard"),
    ("repro.net.node:Node.create", "paper", "§2.4: remote creation"),
    ("repro.mbt.scheduler:Scheduler.reservations", "paper",
     "§3.1: reservations"),
    ("repro.mbt.clock:RealClock.*", "paper",
     "§4: the platform's real clock beside the virtual one"),
    ("repro.mbt.clock:*Clock.is_virtual", "paper",
     "§4: which of the two clocks this is"),
    ("repro.mbt.message:Message.is_reply_to", "paper",
     "§4: request / reply matching"),
    ("repro.media.codec:MpegEncoder.*", "paper",
     "Fig. 1: the producer-side encoder (the figure starts at the file)"),
    ("repro.media.display:VideoDisplay.resize_window", "paper",
     "§2.2: the window-resize control event"),
    ("repro.media.resize:Resizer.on_window_resize", "paper",
     "§2.2: the window-resize control event"),
    ("repro.media.display:VideoDisplay.lateness", "paper",
     "Fig. 1: the display's quality read-outs"),
    ("repro.media.display:VideoDisplay.late_fraction", "paper",
     "Fig. 1: the display's quality read-outs"),
    ("repro.media.display:VideoDisplay.continuity", "paper",
     "Fig. 1: the display's quality read-outs"),
    ("repro.media.dropper:PriorityDropFilter.level", "paper",
     "Fig. 1: the dropping filter's current level"),
    ("repro.media.dropper:PriorityDropFilter._drops_kind", "paper",
     "Fig. 1: the dropping filter's per-item rule (the drivers run its "
     "columnar twin)"),
    ("repro.media.gop:GopStructure.*", "paper",
     "Fig. 1: the MPEG group of pictures (frame list, mean size, "
     "bitrate)"),
    ("repro.feedback.controllers:EwmaSmoother.*", "paper",
     "§2.1: the feedback toolkit's smoothing stage"),
    ("repro.feedback.sensors:BufferFillSensor.*", "paper",
     "§2.1: the feedback toolkit's fill-level sensor"),
    ("repro.feedback.sensors:LossSensor.*", "paper",
     "§2.1: the feedback toolkit's loss sensor"),
    ("repro.feedback.sensors:RateSensor.*", "paper",
     "§2.1: the feedback toolkit's rate sensor"),
    ("repro.runtime.engine:PumpDriver._enter_waiting", "paper",
     "§3.1: a greedy pump over a non-blocking (nil) buffer sleeps until a "
     "push"),
    ("repro.runtime.section:BufferGate.external_wake_pushers", "paper",
     "§3.2: a `flush` control event on a full buffer wakes its pushers"),
    ("repro.components.buffers:Buffer.clear", "paper",
     "§3.2: the `flush` control event"),
    ("repro.components.buffers:Buffer.on_flush", "paper",
     "§3.2: the `flush` control event"),
    ("repro.runtime.section:SegmentLock.*", "paper",
     "§3.2: synchronised-object semantics for shared segments"),
    ("repro.runtime.restructure:Replacement.__str__", "paper",
     "§2.2: dynamic reconfiguration, the record of a replacement"),
    ("repro.deploy.presets:*fig9a_chains", "paper",
     "Fig. 9(a) as N disconnected chains: the multi-core preset the "
     "deploy tests shard at 1, 2 and 4 processes"),

    # -------------------------------------------------------- verification
    # The checker package is verification as a whole; everything else is
    # named, with the reason it is kept.
    ("repro.check.*", "verification", "the checker; the tests are its driver"),
    ("repro.api:Pipeline.certify", "verification",
     "the checker's entry on the run spec"),
    ("repro.mbt.tracing:format_*", "verification",
     "the checker's output: the one trace formatter deadlock reports and "
     "exploration failures quote"),
    ("repro.mbt.tracing:_retained", "verification",
     "the checker's output: what `format_tail` quotes"),
    ("repro.mbt.tracing:dump_on", "verification",
     "error path: the flight recorder's dump (the trace ring's tail) "
     "attached to an escaping violation; owed ROADMAP 3(d), errors "
     "carrying their own tail"),
    ("repro.mbt.scheduler:Scheduler.trace_events", "verification",
     "trace inspection: the switch / block events the scheduler tests "
     "assert on"),
    ("repro.mbt.scheduler:Scheduler._*_linear", "verification",
     "linear-scan oracle the ready queue is checked against (settled: stays "
     "in `mbt/scheduler.py`)"),
    ("repro.mbt.scheduler:Scheduler._compact_ready_heap", "verification",
     "error path: the bound on ready-heap tombstones under key churn on "
     "rarely-picked threads, which `tests/mbt/test_batch_substrate.py` "
     "drives past it; the drivers' fabrics leave too few tombstones"),
    ("repro.mbt.scheduler:Scheduler.inject_crash", "verification",
     "fault injection"),
    ("repro.mbt.scheduler:Scheduler._crash", "verification",
     "fault injection"),
    ("repro.net.network:Network.take_link_down", "verification",
     "fault injection: link flap"),
    ("repro.net.network:Network.bring_link_up", "verification",
     "fault injection: link flap"),
    ("repro.net.network:Network.link_is_down", "verification",
     "fault injection: link flap"),
    ("repro.mbt.mailbox:Mailbox.snapshot", "verification",
     "the deadlock detector's view of a mailbox"),
    ("repro.mbt.thread:MThread.is_blocked", "verification",
     "reference accessor: blocked-in-receive, the state the event tests "
     "put a pump in before signalling its component"),
    ("repro.mbt.mailbox:Mailbox.__len__", "verification",
     "reference accessor: queued-message count"),
    ("repro.mbt.coroutine:*Suspendable.finished", "verification",
     "reference accessor: the life-cycle read-out the two backends are "
     "compared on"),
    ("repro.mbt.coroutine:GeneratorSuspendable.close", "verification",
     "error path: closing a suspended body unwinds its `finally`"),
    ("repro.mbt.timers:PeriodicTimer.period", "verification",
     "reference accessor: the read half of the `period` property whose "
     "setter D1 runs (`PumpDriver.set_rate`)"),
    ("repro.core.composition:Pipeline.__len__", "verification",
     "reference accessor: the pipeline as a container, which the "
     "composition tests state their cases in"),
    ("repro.core.composition:Pipeline.__contains__", "verification",
     "reference accessor: the pipeline as a container"),
    ("repro.core.composition:Pipeline.sources", "verification",
     "reference accessor: the pipeline as a container (twin of `sinks`)"),
    ("repro.core.composition:Pipeline.is_complete", "verification",
     "reference accessor: no free port left, the composition tests' "
     "postcondition"),
    ("repro.core.runs:ColumnarRun.__iter__", "verification",
     "reference accessor: per-item iteration the run fast paths are "
     "compared against"),
    ("repro.lang.registry:Registry.child", "verification",
     "test isolation: a scoped registry, so a test registers a component "
     "without touching the default one"),
    ("repro.media.batch:FrameBatch.*", "verification",
     "reference accessor the columnar fast paths are compared against"),
    ("repro.media.batch:_decode_frame_one", "verification",
     "per-chunk decode oracle of the run codec"),
    ("repro.deploy.placement:_segment_rep", "verification",
     "error path: names the already-placed partner of a component placed "
     "across a non-seam edge (a hand placement that runs never enters it); "
     "`tests/deploy/test_placement.py`"),
    ("repro.media.batch:_negative_field", "verification",
     "input validation: a forged negative field in a run is refused"),
    ("repro.media.arrays:take", "verification",
     "reference construction the columnar `select` is compared against"),
    ("repro.net.marshal:decode_batch", "verification",
     "list-returning oracle of `decode_batch_views`"),
    ("repro.net.mux:_frame_cost", "verification",
     "oracle: item count of a frame whose sender did not state it"),
    ("repro.net.mux:StreamMux.send_link_eos", "verification",
     "error path: the shared link closes under live streams"),
    ("repro.net.mux:StreamMux._rx_link_eos", "verification",
     "error path: a link-level EOS fans out to every open stream"),
    ("repro.net.socketlink:InProcessLink.send", "verification",
     "the transport contract's per-message send on a bare in-process "
     "link, which the conformance suite drives; since "
     "`Deployment.simulate()` joins its shards with a mux pair, every "
     "in-process link the drivers run carries mux trains (`send_frame`)"),
    ("repro.net.socketlink:InProcessLink.send_eos", "verification",
     "same: a bare in-process link's EOS; under a mux each stream's EOS "
     "is a record"),
    ("repro.net.protocols:Transport.receiver_loss_sample", "verification",
     "declared default of the transport contract (docs/RUNTIME.md \"Seams "
     "and their contracts\"): a wire that never loses; `tests/net/"
     "test_transport_contract.py::TestDeclaredDefaults`"),
    ("repro.net.protocols:Transport.attach_scheduler", "verification",
     "declared default of the transport contract: a wire with no simulated "
     "network to run on the engine's scheduler (every driver's netpipe "
     "rides a `Protocol` or a `MuxStream`, which override it); same test"),
    ("repro.net.protocols:Transport.pump", "verification",
     "declared default of the transport contract: a synchronous wire has "
     "nothing to pump; same test"),
    ("repro.net.protocols:Transport.wait", "verification",
     "declared default of the transport contract: nothing to wait for; "
     "same test"),
    ("repro.net.protocols:Transport.close", "verification",
     "declared default of the transport contract: nothing to free; same "
     "test"),
    ("repro.components.buffers:Boundary.try_push_many", "verification",
     "declared default of the boundary contract: the per-item loop "
     "`Buffer.try_push_many` falls back to on overflow"),
    ("repro.net.socketlink:SocketLink.send", "verification",
     "the transport contract's per-message send on a bare link, which the "
     "conformance suite drives (`tests/net/test_transport_contract.py`); "
     "since a deploy seam is a mux stream, every link the drivers run "
     "carries mux trains (`send_frame`)"),
    ("repro.net.socketlink:SocketLink.send_eos", "verification",
     "same: a bare link's EOS; under a mux each stream's EOS is a record, "
     "and a link-wide EOS is `StreamMux.send_link_eos`'s"),
    ("repro.net.socketlink:SocketLink.tcp_pair", "verification",
     "the TCP twin of `pair` the transport tests drive; the sockets it "
     "wraps (`tcp_socketpair`) are D4-reached"),
    ("repro.net.network:Network.nodes", "verification",
     "reference accessor: the topology a test built"),
    ("repro.net.network:Network.__repr__", "verification",
     "error message: `NetworkBindingError` names a network by its seed and "
     "nodes; `tests/net/test_network.py`"),
    ("repro.mbt.scheduler:Scheduler.__repr__", "verification",
     "error message: `NetworkBindingError` names both schedulers by clock, "
     "time and threads; `tests/check/test_refinement.py::test_the_binding_"
     "error_names_two_different_schedulers`"),
    ("repro.core.composition:FlowSpecs.__iter__", "verification",
     "reference accessor: the derived map as a whole (`set(specs)`), which "
     "the drivers only index; `tests/core/test_composition.py::"
     "TestFlowSpecs`"),
    ("repro.core.composition:FlowSpecs.__len__", "verification",
     "reference accessor: the number of derived connections; same test"),
    ("repro.obs.flow:FlowTrace.site", "verification",
     "reference accessor: where a sampled item was dropped"),
    ("repro.obs.flow:FlowTrace.reason", "verification",
     "reference accessor: why a sampled item was dropped"),
    ("repro.obs.flow:FlowTracer.dropped", "verification",
     "reference accessor: the dropped and lost traces"),
    ("repro.obs.flow:LineageStore.trace", "verification",
     "reference accessor: one trace by id"),
    ("repro.obs.metrics:Histogram.bucket_bounds", "verification",
     "reference accessor: the bucket edges expected counts are computed "
     "from"),
    ("repro.obs.metrics:MetricsRegistry.dropped_series", "verification",
     "error path: series refused by the cardinality limit"),
    ("repro.obs.sched:SchedulerProbe.cpu_seconds", "verification",
     "reference accessor: per-thread CPU the fairness tests compare"),
    ("repro.obs.sched:SchedulerProbe.dispatch_counts", "verification",
     "reference accessor: per-thread dispatches the fairness tests compare"),
    ("repro.core.styles:intake_fault", "verification",
     "error path: a `get()` on a port the component does not read (or on "
     "an unbound component), one message for `Producer.get` and the port "
     "closure"),
    ("repro.runtime.bridge:ReplayIntake.begin", "paper",
     "§2.1: components with several in-ports — the rewind of a "
     "multi-input producer, port by port (a single-input producer's is "
     "its port's own closure, which D1-D4 run)"),
    ("repro.runtime.bridge:ReplayIntake.commit", "paper",
     "§2.1: components with several in-ports — the commit of a "
     "multi-input producer, port by port"),
    ("repro.runtime.bridge:PendingEmits.__len__", "verification",
     "reference accessor: emits still queued"),
    ("repro.runtime.bridge:ReplayIntake.intake", "verification",
     "oracle: the replaying intake that direct intake (ISSUE 18) is "
     "compared against, called by port name"),
    ("repro.runtime.stats:PipelineStats.items_out", "verification",
     "reference accessor: the conservation invariants' left-hand side"),
    ("repro.runtime.stats:PipelineStats.retained_in", "verification",
     "reference accessor: the conservation invariants' retained term"),
    ("repro.deploy.deployment:DeploymentResult.items_delivered",
     "verification",
     "reference accessor: a sink's count, found in whichever shard ran it"),
    ("repro.fabric.session:Session.tenant", "verification",
     "reference accessor: the tenant a session's threads are charged to"),
    ("repro.fabric.session:Session.threads", "verification",
     "reference accessor: a session's threads, for the isolation and "
     "parked-fleet tests"),
    ("repro.fabric.session:Session._held", "verification",
     "input validation: a handle acts and reads only while its fabric "
     "holds it under its name (`tests/fabric/test_lifecycle.py::"
     "TestStaleHandles`)"),
    ("repro.fabric.session:SessionFabric._open", "verification",
     "input validation: `park` / `unpark` name an open session, or raise "
     "`DeployError` naming it"),
    ("repro.fabric.session:SessionFabric.completed", "verification",
     "reference accessor: sessions that ran to completion"),
    ("repro.fabric.session:SessionFabric.run_to_completion", "verification",
     "the explorer's default drive of a `SessionFabric` program "
     "(`tests/fabric/test_fabric_e2e.py` explores fabrics)"),
    ("repro.mbt.scheduler:Scheduler.tenant", "verification",
     "reference accessor: a tenant's account by name"),
    ("repro.mbt.thread:MThread.tenant", "verification",
     "error path: the fabric finds a crashed thread's session through "
     "its tenant (`tests/fabric/test_lifecycle.py`)"),
    ("repro.fabric.session:SessionFabric._contain", "verification",
     "error path: moves the session a crashed thread belongs to to "
     "CRASHED, or declines a crash the fabric must not contain "
     "(`tests/fabric/test_lifecycle.py`)"),
    ("repro.fabric.session:SessionFabric._quiesce", "verification",
     "error path: parks a crashed session's threads "
     "(`tests/fabric/test_lifecycle.py`); also the body of `park`, whose "
     "own row names what it is owed"),
]

#: (function, function-lines, what reached it at the parent, tests deleted
#: with it) — measured on 70f6951 before the cut; a class is one entry.
DELETED: list[tuple[str, int, str, str]] = [
    ("repro.runtime.batching:BatchPolicy (__init__, clamp, set_current, "
     "__repr__; the module was 137 lines)", 38,
     "`__init__` by every driver (each Engine wrapped its `batch_max` in "
     "one); the rest by runtime/test_batching.py",
     "`TestBatchPolicy::test_clamp_and_set_current`, `::test_adaptive_starts_"
     "at_min`, `::test_engine_rejects_both_policy_and_max` "
     "(`test_defaults_disable_batching` / `test_validation` now state the "
     "same of `Engine(batch_max=)`)"),
    ("repro.runtime.batching:attach_adaptive_batching", 41,
     "runtime/test_batching.py",
     "`TestAdaptiveBatching::test_loop_steers_current_between_bounds`, "
     "`::test_requires_batching_enabled`"),
    ("repro.feedback.actuators:BatchSizeActuator (2 methods)", 11,
     "runtime/test_batching.py", "with `attach_adaptive_batching`"),
    ("repro.mbt.coroutine:CoroutineSet (8 methods)", 34,
     "mbt/test_coroutine.py, mbt/test_coroutine_set_extra.py",
     "`test_coroutine_set_membership_and_switching`, `test_coroutine_set_"
     "rejects_duplicates_and_unknown`, `TestCoroutineSetLifecycle` (3 "
     "tests; that `close` unwinds a suspended body is now asserted on "
     "`GeneratorSuspendable` in `test_generator_backend_close_is_"
     "idempotent`)"),
    ("repro.mbt.timers:TimerService (3 methods)", 29, "mbt/test_timers.py",
     "none: `test_post_at_*`, `test_post_after_*` and `test_post_with_"
     "constraint_*` keep their assertions on `Scheduler.at` / `after` and "
     "`PeriodicTimer(constraint=)`"),
    ("repro.fabric.session:FabricIO (4 methods)", 17, "nothing", "none"),
    ("repro.media.codec:MpegEncoder.process_run", 40, "nothing", "none"),
    ("repro.core.component:linear_chain", 10, "nothing", "none"),
    ("repro.core.naming:reset_counters", 3, "nothing", "none"),
    ("repro.deploy.placement:ShardPlan.cuts_touching", 4, "nothing", "none"),
    ("repro.mbt.scheduler:Scheduler.blocked_threads", 2, "nothing", "none"),
    ("repro.net.network:Network.unregister_receiver", 2, "nothing", "none"),
    ("repro.net.node:Node.typespec_of", 3, "nothing", "none"),
    ("repro.media.display:VideoDisplay.displayed_seqs", 3, "nothing", "none"),
    ("repro.components.pumps:Pump.items_pumped", 3, "nothing", "none"),
    ("repro.mbt.thread:MThread.processing", 4, "nothing", "none"),
    ("repro.mbt.thread:MThread.priority (getter and setter: the static "
     "priority is fixed at spawn; the one reader was a dead `else` in the "
     "scheduler's `Call` donation)", 7, "`__repr__`", "none"),
    ("repro.check.deadlock:DeadlockReport.is_deadlock / __str__", 5,
     "nothing", "none"),
    ("repro.fabric.certify:HostedSession.completed", 3, "nothing", "none"),
    ("repro.net.socketlink:SocketLink.loopback", 11, "nothing", "none"),
    # Found by the same measurement, named by no issue:
    ("repro.components.buffers:ZipBuffer.is_empty", 3, "nothing", "none"),
    ("repro.core.typespec:Choices.__bool__", 2, "nothing", "none"),
    ("repro.media.frames:payload_nbytes", 7, "nothing", "none"),
    ("repro.net.mux:StreamMux.readable", 3, "nothing", "none"),
    ("repro.obs.flow:FlowTrace.by_hop", 10, "nothing", "none"),
    ("repro.obs.flow:FlowTracer.trace", 2, "nothing", "none"),
    ("repro.runtime.engine:CoroutineDriver.continuation", 7, "nothing",
     "none"),
    ("repro.runtime.stats:PipelineStats.bytes_in / bytes_out / total_drops",
     9, "nothing", "none"),
    # Accessors only an assertion in their own unit test read; each
    # assertion now reads the state the accessor wrapped:
    ("repro.api:BuiltApp.stats", 3, "test_api.py",
     "none (`built.engine.stats`)"),
    ("repro.components.buffers:Buffer.is_empty", 3,
     "components/test_buffers.py", "none (`fill_level == 0`)"),
    ("repro.net.netpipe:NetpipeReceiver.is_empty", 3,
     "property/test_seam_runs.py", "none (`fill_level == 0`)"),
    ("repro.core.component:Port.is_input", 3, "core/test_component.py",
     "none (`direction is Direction.IN`)"),
    ("repro.core.events:EventService.receivers", 3,
     "core/test_events.py, runtime/test_restructure.py",
     "none (`send_to` an unregistered name raises)"),
    ("repro.deploy.placement:ShardPlan.shard_of", 2,
     "deploy/test_placement.py", "none (`plan.assignment[name]`)"),
    ("repro.net.marshal:Codec (a facade of two staticmethods: no "
     "function-lines, so the recorder never saw it — the export guard "
     "did)", 0, "nothing, not even a test", "none"),
    # ISSUE 22 (measured at its parent, 23dc996): explicit spans, and the
    # copies the three seam contracts made unnecessary.
    ("repro.obs.spans:Span (6 methods), Telemetry.span, Telemetry.now", 50,
     "obs/test_telemetry.py", "`TestSpans::test_explicit_span`"),
    ("repro.components.buffers:ZipBuffer.try_push_many / try_pull_many "
     "(now the `Boundary` defaults)", 19, "runtime/test_batching.py",
     "none"),
    ("repro.net.protocols:Protocol._emit_message / _hand_over, "
     "repro.net.socketlink:SocketLink._emit, repro.net.mux:MuxStream._emit "
     "(now `Transport._receive`) and three `on_deliver` copies", 98,
     "D1-D4", "`tests/net/test_mux.py::TestRouting::test_frame_without_"
     "deliver_frame_falls_back_to_items` (a cell of `tests/net/"
     "test_transport_contract.py`)"),
    ("repro.net.socketlink / repro.net.mux: `receiver_loss_sample`, `pump`, "
     "`close` no-ops of SocketLink, InProcessLink and MuxStream (now the "
     "`Transport` defaults)", 11, "net/test_mux.py, net/test_socketlink.py",
     "none"),
    ("repro.components.pumps:Pump / sources:ActiveSource / sinks:ActiveSink "
     "`on_start` / `on_stop` / `on_pause` / `on_resume` / `period` (now "
     "`ActivityOrigin`)", 42, "D1-D4", "none"),
    ("repro.net.netpipe:_attach_scheduler", 6, "D1-D4", "none"),
    # One formatter (`repro.mbt.tracing:format_events`) instead of four:
    ("repro.check.deadlock:_excerpt", 13,
     "check/test_deadlock.py, check/test_explore_figures.py, "
     "runtime/test_gates_locks.py",
     "none (now `mbt.tracing.format_tail`)"),
    ("repro.check.explorer:_trace_tail", 12,
     "check/test_explorer.py, check/test_refinement.py, +3 more",
     "none (now `mbt.tracing.format_tail`)"),
    # ISSUE 25 (measured at its parent, 63561ee): the flight recorder is
    # the trace ring, scheduler metrics are planted on the thread.
    ("repro.obs.recorder:FlightRecorder (8 methods; the module was 116 "
     "lines), `DEFAULT_CAPACITY`, `Telemetry(recorder_capacity=)` / "
     "`Telemetry.recorder`", 75, "obs/test_flow.py, obs/test_telemetry.py",
     "`TestFlightRecorder::test_recorder_via_telemetry` (the ring and "
     "`dump_on` tests now start the ring with the trace limit)"),
    ("repro.obs.sched:SchedulerProbe._thread_counters / _bump (the "
     "name-routing table; the five hooks moved to `ThreadMeter`, planted "
     "on the thread)", 34, "D1-D4", "none"),
    # ROADMAP 6(iii): nothing drains a mailbox.
    ("repro.mbt.mailbox:Mailbox.clear", 7, "mbt/test_mailbox.py",
     "`test_clear_returns_delivery_order`"),
    # ISSUE 27 (measured at its parent, 8d6c636): every heap-top reader is
    # a peek at `Scheduler._live_top`, and the oracles read `_fair_key`.
    ("repro.mbt.scheduler:Scheduler._peek_live (and the heap walk "
     "`_exists_more_urgent_ready` kept beside its comparison)", 10, "D1-D4",
     "none"),
    ("repro.mbt.scheduler:Scheduler._other_ready (now `_live_top(thread) "
     "is not None`)", 16, "check/test_deadlock.py, mbt/test_scheduler.py",
     "none"),
    ("repro.mbt.scheduler:Scheduler._fair_key_linear (now `_fair_key`)", 8,
     "mbt/test_scheduler_invariants.py", "none"),
    ("repro.runtime.engine:PumpDriver.data_constraint (the driver builds "
     "its constraint once, with its Repost)", 4, "D1-D4", "none"),
    # ROADMAP 6 (measured at its parent, ce3664e): the features no figure,
    # certificate, workload or CLI command runs.  (i) the audio columnar
    # half:
    ("repro.media.batch:SampleBatch (8 methods)", 64,
     "media/test_frame_batch.py, property/test_media_columnar.py, "
     "property/test_media_fastpaths.py, +1 more",
     "`TestSampleBatch` (3 tests x 2 backends), `test_samples_materialized_"
     "a_run_at_a_time_equal_sample_i` (3 kinds)"),
    ("repro.media.batch:_encode_sample_run / _parse_sample_chunk / "
     "_decode_sample_run / _decode_sample_one (the 0x21 run codec, with "
     "`SAMPLE_WIRE_ID` and `_AS_HEAD`; 0x21 bytes are now an unknown wire "
     "tag)", 62, "media/test_frame_batch.py, net/test_media_wire.py, "
     "property/test_media_runs.py",
     "`TestForgedMediaChunks::test_negative_sample_field_is_refused` (2; "
     "`test_a_retired_sample_chunk_is_refused_not_decoded` pins the "
     "refusal)"),
    ("repro.media.audio:AudioSource.pull_many", 27,
     "media/test_frame_batch.py, property/test_media_columnar.py",
     "`test_audio_source_batch_matches_per_item`"),
    ("repro.media.audio:AudioSource(payloads=) (a parameter: no "
     "function-lines; nothing reads audio payload bytes without the mixer)",
     0, "D1 (`examples/av_player.py --payloads`)", "none"),
    ("repro.media.audio:AudioMixer (5 methods, with its `set-gain` "
     "handler)", 108, "core/test_component.py, property/test_media_"
     "columnar.py, runtime/test_events_runtime.py",
     "`test_mixer_backends_and_paths_agree`, `TestStockHandlers::test_set_"
     "gain_reaches_the_mixer_between_blocks`, `TestPortIndex::test_every_"
     "stock_component[AudioMixer]`"),
    ("repro.media.batch:_ColumnarBatch._init_payload (inlined: the class "
     "folded into `FrameBatch`, its one subclass)", 7, "D1-D4", "none"),
    ("repro.media.arrays:payload_region (the mixer's zero-filled output "
     "region; nothing else allocated one)", 6,
     "property/test_media_columnar.py", "none"),
    # (ii) the zip join:
    ("repro.components.buffers:ZipBuffer (5 methods; with `Boundary.joins` "
     "and the `zip_buffer` registry name)", 53,
     "components/test_buffers.py, core/test_component.py, obs/test_flow.py, "
     "+1 more",
     "`TestZipBuffer` (8 tests), `TestEquivalence::test_zip_buffer_"
     "batched`, `TestPortIndex::test_every_stock_component[ZipBuffer]`"),
    ("repro.obs.flow:ZipLane (5 methods; with the `joined` status and the "
     "`port` argument of `Lane.put` / `get`)", 38,
     "components/test_buffers.py, obs/test_flow.py",
     "`TestPipelineTracing::test_zip_fanin_joins_secondary_traces`"),
    ("repro.components.buffers:Boundary.try_pull_many (the per-item "
     "default; `Buffer` and `NetpipeReceiver` have their own)", 14,
     "runtime/test_batching.py", "none"),
    # (iv) the SLO engine and the HTTP server:
    ("repro.obs.slo:Objective, _Series, SloEngine (12 methods; the module "
     "was 350 lines)", 221, "D4 (`top`, `run --serve-metrics`), "
     "obs/test_slo.py",
     "`tests/obs/test_slo.py` (15 tests)"),
    ("repro.feedback.sensors:SloBurnSensor (2 methods)", 28,
     "obs/test_slo.py", "with `tests/obs/test_slo.py`"),
    ("repro.api:Pipeline.with_slo (with `slo_latency` and `BuiltApp.slo`)",
     3, "D4 (`top`, `run --serve-metrics`)",
     "`TestRun::test_slo_implies_metrics_and_tracing`, `TestDeployment"
     "Bridge::test_slo_alone_deploys_with_telemetry`"),
    ("repro.obs.flow:LineageStore.on_complete (the SLO engine's feed)", 4,
     "D4 (`top`)", "`TestLineageStore::test_on_complete_callback_fires`"),
    ("repro.obs.dashboard:MetricsServer (6 methods; with `run "
     "--serve-metrics` / `--serve-for` and the `http.server` import)", 92,
     "D4 (`run --serve-metrics`), obs/test_dashboard.py",
     "`TestMetricsServer` (2 tests), `TestCli::test_run_serve_metrics_"
     "smoke`"),
    ("repro.obs.dashboard:_slo_lines (the SLO pane; with `--slo-latency`)",
     19, "D4 (`top`)", "none"),
    # (v) the fabric TENANTS pane:
    ("repro.fabric.session:SessionFabric.collect_metrics", 25,
     "fabric/test_session.py",
     "`TestStatsAndObs::test_collect_metrics_labels_by_tenant`"),
    ("repro.fabric.session:SessionFabric.tenant_rows", 22,
     "fabric/test_session.py, obs/test_dashboard.py",
     "`TestStatsAndObs::test_tenant_rows_for_top`"),
    ("repro.obs.dashboard:_tenant_lines (with `render_top(fabric=)`)", 19,
     "obs/test_dashboard.py",
     "`TestRenderTop::test_tenant_pane_lists_sessions_busiest_first`, "
     "`::test_tenant_pane_folds_a_large_fleet`"),
    # The component, run and boundary contracts (measured at their parent,
    # 146f5e2): a fallback no class reached, a marker `isinstance` states,
    # state nothing read, a hook nothing overrode, and a second way to set
    # every CLI option.
    ("repro.runtime.section:_convert_many_fn (its per-item fallback: the "
     "one FUNCTION-style class, `FunctionComponent`, defines "
     "`convert_many`)", 11, "D1-D4", "none"),
    ("repro.core.runs:is_columnar (with the `ColumnarRun.columnar` marker; "
     "now `isinstance(run, ColumnarRun)`)", 3, "D1-D4", "none"),
    ("repro.runtime.engine:Engine.note_sink_eos (with `Engine._sink_eos`, "
     "written on every sink EOS and read by nothing)", 2, "D1-D4", "none"),
    ("repro.runtime.engine:Engine.note_section_finished (a `pass` hook no "
     "class overrode)", 2, "D1-D4", "none"),
    ("repro.__main__:_apply_config (`--config FILE.toml`)", 30,
     "D4 (its early return)", "none"),
    # The checker's contract (measured at its parent, 66269f1): it builds
    # and runs an Engine, a SessionFabric or a Scheduler, and reads what
    # they declare.
    ("repro.fabric.certify:HostedSession (5 members: a fake Engine "
     "forwarding the session's; `fabric_hosted` now builds the session's "
     "own Engine)", 18, "D3", "none"),
    ("repro.check.explorer:_run_once / _minimize (their bodies are now "
     "`run_once` / `minimize_failure`, which wrapped them), _default_drive, "
     "_scheduler_of (now `isinstance`)", 96, "D3", "none"),
    ("repro.check.refine:PipelineUnderTest.from_lang (and the string "
     "form of `PipelineUnderTest.of`)", 28, "check/test_refinement.py",
     "`tests/check/test_refinement.py::test_from_lang_certifies_a_"
     "recompiled_transmission_policy`"),
    ("repro.api:Pipeline.with_engine_options (with the `engine_kwargs` "
     "field; every option is a named `with_*` step)", 4,
     "check/test_refinement.py, deploy/test_spawn_safety.py, "
     "deploy/test_worker.py, +1 more",
     "`tests/test_api.py::TestConstruction::test_engine_options_merge`"),
    ("repro.obs.metrics:Histogram.observe_count (an alias of `observe`: "
     "no function-lines)", 0, "obs/test_metrics.py",
     "none (`test_observe_count_weights_by_items` calls `observe`)"),
    ("repro.deploy.placement:_netpipe_pairs (now `repro.net.netpipe:"
     "netpipe_pairs`, which conservation and the lossy-path walk share)",
     15, "D1-D4", "none"),
    ("repro.api:Pipeline.from_source(registry=) (a parameter: no "
     "function-lines; `from_lang` was its one caller)", 0,
     "check/test_refinement.py", "none"),
    # The front-door policies nothing selects (measured at their parent,
    # 6887ba6): fabric admission control and cost-weighted placement.
    ("repro.fabric.admission:SessionRequest, Decision, AdmissionController, "
     "reject_over_capacity, queue_over_capacity, degrade_over_capacity, "
     "_over_budget (12 functions; the module was 202 lines, with "
     "`SessionFabric(admission=)`, `SessionFabric.pending` and "
     "`Session.decision`)", 101,
     "fabric/test_admission.py, fabric/test_session.py",
     "`tests/fabric/test_admission.py` (11 tests; `TestFailedOpenLeaves"
     "Nothing` keeps every assertion but the slot's)"),
    ("repro.fabric.session:SessionRejected.__init__", 6,
     "fabric/test_admission.py", "with `tests/fabric/test_admission.py`"),
    ("repro.fabric.session:SessionFabric.admit_pending (with "
     "`open_session(request=, start=)`)", 19, "fabric/test_admission.py",
     "with `tests/fabric/test_admission.py`"),
    ("repro.net.qosmap:bandwidth_demand(item_rate=) (a parameter and the "
     "no-rate fallback that priced admission's non-media flows)", 0,
     "fabric/test_admission.py, net/test_qosmap.py",
     "`TestBandwidthDemand::test_no_rate_with_explicit_item_rate`, "
     "`::test_frame_rate_beats_item_rate_fallback` "
     "(`test_no_rate_falls_back_to_item_size` is now "
     "`test_no_rate_is_unknown_even_with_an_item_size`)"),
    ("repro.deploy.placement:_component_weights (with `Placement.costs` "
     "and `Placement.auto(costs=)`; a segment weighs its component count, "
     "which every caller got)", 16, "D1-D4", "none "
     "(`test_weights_steer_the_split` drops its `costs=`)"),
    # The credited wire path, one call per hop that cannot wait (measured
    # at its parent, 3658612).
    ("repro.net.socketlink:SocketLink.pump(max_messages=) (a parameter "
     "and its bound: the socket was read only when no complete message "
     "was buffered; with `Transport.pump` / `MuxStream.pump` / "
     "`StreamMux.pump`'s, and `_dispatch`'s `limit`, `_dispatch` folded "
     "into `pump`)", 14, "net/test_socketlink.py, "
     "property/test_socketlink_framing.py",
     "`TestSocketLink::test_bounded_pump_leaves_the_rest_in_the_kernel`, "
     "`::test_truncated_message_raises_from_a_bounded_pump_too` (the "
     "unbounded truncation test now also checks the message ahead of it)"),
    ("repro.net.socketlink:SocketLink.__repr__", 5, "nothing", "none"),
    ("repro.net.links:Link.key (the network files a link under its "
     "`(src, dst)` as it builds it)", 3, "D1-D4", "none"),
    ("repro.net.mux:MuxStream._submit (folded into `send` / "
     "`send_frame`; their refusal is `_refuse`)", 13, "D1-D4",
     "none (`test_a_stream_that_queues_past_the_window_fails` patches "
     "`send`)"),
    ("repro.core.events:EventService.add_relay (a broadcast crosses "
     "nodes as per-receiver messages delayed by `Engine._event_delay`)",
     3, "core/test_events.py", "`TestEventService::test_relays_see_"
     "broadcasts`"),
    ("repro.fabric.session:_drivers (now `Engine.drivers`, which "
     "`repro.obs.flow.plant` reads too)", 5, "D1-D4", "none"),
    ("repro.mbt.scheduler:Scheduler._block_until (a sleep blocks "
     "through `Scheduler._block`, as a receive does)", 14,
     "mbt/test_clock.py, mbt/test_scheduler.py", "none"),
    # One build split into every shard's pipeline (measured at its
    # parent, 92056dd).
    ("repro.deploy.worker:_rehome_netpipe (inlined into the split, which "
     "re-homes a netpipe cut's halves in place)", 9,
     "check/test_refinement.py, deploy/test_deployment.py",
     "none (`test_existing_netpipe_pair_is_the_seam` still drives the "
     "netpipe seam)"),
    ("repro.runtime.section:SegmentLock.held_by (read by no library "
     "code)", 2, "runtime/test_gates_locks.py", "none"),
    # The syscalls only the thread package's own tests yielded (measured
    # at its parent, 9ad5420): constraint inheritance is the crossing's.
    ("repro.mbt.syscalls:Call, Sleep, WaitUntil, Exit, `Receive(timeout=)` "
     "and `TIMED_OUT` (dataclasses and a sentinel: no function-lines; "
     "their branches sat in `Scheduler._drive`, which every driver "
     "reaches)", 0, "mbt/test_scheduler.py, mbt/test_scheduler_edges.py, "
     "mbt/test_scheduler_invariants.py, +3 more",
     "`test_call_and_reply_round_trip`, `test_receive_timeout_resumes_"
     "with_sentinel`, `test_sleep_advances_virtual_time`, `test_wait_until_"
     "in_the_past_continues_immediately`, `TestReceiveTimeouts::test_call_"
     "with_timeout`, `::test_timeout_timer_cancelled_when_message_arrives`, "
     "`TestTermination::test_exit_syscall_terminates_thread`, `test_"
     "donations_and_timeouts_keep_index_consistent` (the deadlock cycle, "
     "the real-clock test and the heap/linear property are restated with "
     "`Send` / `Receive` and timer posts)"),
    ("repro.mbt.scheduler:Scheduler._call_constraint (with `_drive`'s "
     "`Call` branch)", 9, "check/test_deadlock.py, mbt/test_scheduler.py, "
     "mbt/test_scheduler_edges.py, +2 more", "with `Call`"),
    ("repro.mbt.scheduler:Scheduler._block (inlined into `_drive`'s "
     "`Receive` branch, its one caller once no wait has a wake timer)", 19,
     "D1-D4", "none"),
    ("repro.mbt.thread:MThread.donate / revoke_donation (with `_donations`, "
     "the donation fold in `_compute_sort_key` and `Reply`'s revoke)", 6,
     "`revoke_donation` by D1-D4 (every `Reply`); `donate` by "
     "check/test_deadlock.py, mbt/test_scheduler.py, +3 more",
     "`test_priority_inheritance_prevents_inversion`, `TestDonations::"
     "test_donation_removed_after_reply`"),
    ("repro.mbt.thread:MThread.effective_priority", 3,
     "check/test_deadlock.py, mbt/test_scheduler.py, +3 more", "with "
     "`donate`"),
    ("repro.mbt.constraints:Constraint.is_more_urgent_than / most_urgent / "
     "inherit (with `DEFAULT_CONSTRAINT`)", 22,
     "mbt/test_constraints.py, mbt/test_scheduler_invariants.py",
     "`test_most_urgent_skips_none`, `test_inherit_keeps_more_urgent`, "
     "`test_default_constraint_priority_zero` (the four ordering tests "
     "compare `sort_key()`)"),
    ("repro.obs.sched:ThreadMeter.on_donation (with "
     "`repro_sched_donations_total`)", 7, "obs/test_telemetry.py",
     "`TestSchedulerProbe::test_priority_donations_are_counted_for_the_"
     "callee`"),
    # A runtime thread as one object, holding the Receive it blocks in
    # (measured at its parent, 89df355).
    ("repro.mbt.thread:WaitState (a dataclass: no function-lines; a "
     "blocked thread's `_wait` is the `Receive` it yielded)", 0, "D1-D4",
     "none"),
    ("repro.runtime.section:BufferGate._waits (split into `_space_wait` / "
     "`_item_wait`, each built at its own direction's first park)", 7,
     "D1-D4", "none"),
    # Options no driver set (measured at their parent, 1cc2550): the
    # scheduler charges every tenant one unit a dispatch.
    ("repro.mbt.scheduler:Tenant.weight / weight.setter (with "
     "`Tenant(weight=)`, `_weight`, `_inv_weight`, `Scheduler.add_tenant("
     "weight=)`, `SessionFabric.open_session(weight=)` and "
     "`Session.weight`)", 9, "fabric/test_session.py, "
     "mbt/test_scheduler_tenants.py",
     "`test_tenant_weight_must_be_positive`, `test_weighted_shares_are_"
     "proportional`, `TestFailedOpenLeavesNothing::test_failure_after_set_"
     "up_removes_the_spawned_threads` (the weights of "
     "`test_add_tenant_is_get_or_create`, `test_weighted_vtime_accrual` and "
     "the mixed-weight fabrics are restated equal)"),
    ("repro.fabric.session:Session.set_weight", 6, "fabric/test_session.py",
     "`TestWeights::test_set_weight_live`, `::test_a_refused_weight_"
     "changes_nothing`"),
    ("repro.mbt.scheduler:Scheduler.run_until_idle (the substrate tests "
     "call `run()`)", 2, "mbt/test_clock.py, mbt/test_scheduler.py, "
     "mbt/test_scheduler_edges.py, +10 more", "none"),
]

#: Why a parameter docs/REACH.md's appendix lists is still there:
#: ``(function pattern, parameter, reason)``, first match.  An entry no
#: line here explains reads UNDECIDED and fails ``tools/reach.py``.
ONE_SIGNATURE = ("one entry signature for single- and multi-port "
                 "components: the runtime always passes the port, tees read "
                 "it")
INJECTION = "injection seam: a test substitutes a fake through it"
TYPESPEC = ("the paper's Typespec capability and property stamping "
            "(§2.3)")
KEPT_PARAMETERS = [
    ("*", "port", ONE_SIGNATURE),
    ("repro.__main__:main", "argv",
     INJECTION + " (`tests/core/test_cli.py` runs the CLI in-process)"),
    ("repro.feedback.sensors:MetricSensor.__init__", "now",
     INJECTION + " (a scripted clock)"),
    ("repro.obs.dashboard:render_top", "now", INJECTION),
    ("repro.obs.dashboard:render_top", "width", INJECTION),
    ("repro.obs.dashboard:Dashboard.run_plain", "out",
     INJECTION + " (a StringIO for stdout)"),
    ("repro.obs.exporters:chrome_trace", "end",
     "closes the last running slice of a bare event list, which has no "
     "clock to ask (a scheduler source knows its own time): the exporter "
     "tests' input"),
    *((f"repro.{where}.__init__", "name",
       "every component takes one: the session prefix and the event table "
       "key on it")
      for where in ("components.filters:CostFilter",
                    "components.frag:ActiveDefragmenter",
                    "components.sinks:CallbackSink",
                    "core.styles:_LinearComponent")),
    *((f"repro.components.{where}.__init__", "input_spec", TYPESPEC)
      for where in ("filters:MapFilter", "sinks:CallbackSink",
                    "sinks:ActiveSink")),
    ("repro.components.filters:MapFilter.__init__", "output_props",
     TYPESPEC),
    ("repro.components.frag:*Defragmenter.__init__", "assemble",
     "§3.3's `y = assemble(x1, x2)`: how a defragmenter joins its parts"),
    ("repro.fabric.session:SessionFabric.__init__", "scheduler",
     "the one way to trace a fabric (`SessionFabric(scheduler=Scheduler("
     "trace=True))`, which the `DeployError` for a traced spec names)"),
    ("repro.feedback.sensors:MetricSensor.__init__", "stat",
     "which aggregate of a histogram family the sensor reads"),
    ("repro.obs.metrics:*.__init__", "labels",
     "passed as `cls(name, key[1])`, which a bare-name census cannot "
     "resolve"),
    ("repro.media.gop:GopStructure.__init__", "size_variation",
     "tests/media turn the size noise off to pin exact frame sizes"),
    ("repro.api:Pipeline.deploy", "placement",
     "the hand-placed deploy in one call: D4's hand-placed run (`repro "
     "deploy --place`) passes its `Placement` to `Pipeline.deployment`, "
     "which this forwards to; owed a placement workload"),
]
