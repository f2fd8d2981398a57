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
    "deleted": "gone in ISSUE 21 or 22 (listed under \"Deleted\" below the "
               "rows).",
}

OPEN_10K = ("owed ROADMAP 1(a) `fabric-open-10k` (open / park / unpark / "
            "close churn at a steady fleet)")
FAIRNESS = "owed ROADMAP 1(c): tenant fairness as a step-counted metric"
AUDIO = ("owed a payload-carrying audio leg on `video-wire` (`examples/"
         "av_player.py --payloads` is its only caller) — or the next diet")
HAND_PLACED = ("owed a hand-placed deploy run in D4 (`repro deploy --place`, "
               "tested in ISSUE 21) or a placement workload")
ZIP = ("owed a joining workload (two flows zipped at a buffer) — or the "
       "next diet")
SUBSTRATE = ("owed a substrate caller (`Scheduler.post_many` delivers per "
             "message, nothing drains a mailbox) — or the next diet")
RECORDER = ("owed ROADMAP 3(b)/(d): the recorder ring as a view, errors "
            "carrying its tail")
CROSSING = ("owed ROADMAP 3(a): an instrumented run with a coroutine "
            "crossing (`fig9a-obs` has none)")

RULES = [
    # ----------------------------------------------------------------- pile
    # (ii): contracts nothing had ever run; each now has a tier-1 test.
    ("repro.__main__:_parse_place", "tested here",
     "`tests/core/test_cli.py::test_deploy_place_*`"),
    ("repro.check.explorer:minimize_failure", "tested here",
     "`tests/check/test_explorer.py::test_minimize_failure_shrinks_a_"
     "recorded_failure`"),
    ("repro.check.refine:PipelineUnderTest.from_lang", "tested here",
     "`tests/check/test_refinement.py::test_from_lang_certifies_a_"
     "recompiled_transmission_policy`"),
    ("repro.check.refine:_sorted_union", "tested here",
     "`tests/check/test_refinement.py::test_lossy_union_*` (with its "
     "reordered mutant twin)"),
    ("repro.deploy.worker:_rehome_netpipe", "tested here",
     "`tests/deploy/test_deployment.py::TestShardedExecution::"
     "test_existing_netpipe_pair_is_the_seam`"),
    ("repro.deploy.worker:ShardIO._drain_control", "tested here",
     "`tests/deploy/test_worker.py::TestControlPipe`"),
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
    ("repro.media.audio:AudioMixer.on_set_gain", "tested here",
     "`tests/runtime/test_events_runtime.py::TestStockHandlers`"),
    ("repro.components.filters:Gate.on_gate_open", "tested here",
     "`tests/runtime/test_events_runtime.py::TestStockHandlers`"),
    ("repro.net.mux:MuxStream.pump", "tested here",
     "`tests/net/test_mux.py::TestTransports::test_a_stream_and_its_mux_"
     "answer_the_io_source_interface`"),
    ("repro.net.mux:MuxStream.close", "tested here", "same test"),
    ("repro.net.mux:StreamMux.wait", "tested here", "same test"),
    ("repro.obs.dashboard:Dashboard.run_curses", "tested here",
     "`tests/obs/test_dashboard.py::TestDashboardLoop::test_curses_loop_"
     "draws_clips_and_quits` (a scripted screen; CI has no terminal)"),
    ("repro.obs.sched:SchedulerProbe.on_donation", "tested here",
     "`tests/obs/test_telemetry.py::TestSchedulerProbe::test_priority_"
     "donations_are_counted_for_the_callee`"),

    # ---------------------------------------------------------------- pile
    # (iii): documented extensions with no real driver — the debt list.
    ("repro.fabric.admission:*", "exception", OPEN_10K),
    ("repro.net.qosmap:*", "exception", OPEN_10K + "; admission's demand "
     "estimate"),
    ("repro.fabric.session:SessionRejected.__init__", "exception", OPEN_10K),
    ("repro.fabric.session:SessionFabric.admit_pending", "exception",
     OPEN_10K),
    ("repro.fabric.session:SessionFabric.park", "exception", OPEN_10K),
    ("repro.fabric.session:SessionFabric.unpark", "exception", OPEN_10K),
    ("repro.fabric.session:Session.unpark", "exception", OPEN_10K),
    ("repro.mbt.scheduler:Scheduler.park_thread", "exception", OPEN_10K),
    ("repro.mbt.scheduler:Scheduler.unpark_thread", "exception", OPEN_10K),
    ("repro.mbt.scheduler:Scheduler.parked_threads", "exception", OPEN_10K),
    ("repro.fabric.session:Session.set_weight", "exception", FAIRNESS),
    ("repro.mbt.scheduler:Tenant.weight*", "exception", FAIRNESS),
    ("repro.mbt.scheduler:Scheduler._finish_burst", "exception", FAIRNESS),
    ("repro.fabric.session:SessionFabric.collect_metrics", "exception",
     "owed a `repro top` / `--metrics` run over a fabric in D4"),
    ("repro.fabric.session:SessionFabric.tenant_rows", "exception",
     "owed a `repro top` run over a fabric in D4"),
    ("repro.obs.dashboard:_tenant_lines", "exception",
     "owed a `repro top` run over a fabric in D4"),
    ("repro.media.batch:SampleBatch.*", "exception", AUDIO),
    ("repro.media.batch:_*_sample_*", "exception", AUDIO),
    ("repro.media.audio:AudioSource.pull_many", "exception", AUDIO),
    ("repro.media.audio:AudioMixer.*", "exception", AUDIO),
    ("repro.feedback.sensors:SloBurnSensor.*", "exception",
     "owed ROADMAP 3: an SLO-driven feedback loop in a measured run"),
    ("repro.obs.slo:SloEngine.burn_rates", "exception",
     "owed ROADMAP 3: read only by `SloBurnSensor`"),
    ("repro.deploy.placement:Placement.explicit", "exception", HAND_PLACED),
    ("repro.deploy.placement:_resolve_explicit", "exception", HAND_PLACED),
    ("repro.deploy.placement:_segment_rep", "exception", HAND_PLACED),
    ("repro.mbt.mailbox:Mailbox.put_many", "exception", SUBSTRATE),
    ("repro.mbt.mailbox:Mailbox.clear", "exception", SUBSTRATE),
    ("repro.components.buffers:ZipBuffer.*", "exception", ZIP),
    ("repro.components.buffers:Boundary.try_pull_many", "exception",
     ZIP + "; the per-item default only a zip still uses"),
    ("repro.obs.flow:ZipLane.*", "exception", ZIP + "; its lane"),
    ("repro.obs.flow:TraceContext.fork", "exception", ZIP + "; lineage of "
     "a joined item"),
    ("repro.obs.flow:FlowTrace.parent", "exception", ZIP + "; lineage of a "
     "joined item"),
    ("repro.obs.recorder:FlightRecorder.*", "exception", RECORDER),
    ("repro.mbt.scheduler:Scheduler.enable_trace", "exception",
     RECORDER + "; the ring's switch"),
    ("repro.components.sources:IterSource.pull_many", "exception",
     "owed ROADMAP 1(b) `fabric-mux-batched`: the tenants' source at "
     "`batch_max=32` (the `fig9a` chains pull it through a producer, an "
     "item at a time)"),
    ("repro.obs.flow:Hand.depart", "exception", CROSSING),
    ("repro.obs.flow:Hand.arrive", "exception", CROSSING),
    ("repro.runtime.section:_item_data_count", "exception", CROSSING),
    ("repro.obs.sched:SchedulerProbe.on_cpu", "exception",
     "owed ROADMAP 3(a): an instrumented run whose stages charge virtual "
     "CPU (`fig9a-obs` charges none)"),
    ("repro.obs.dashboard:MetricsServer.*", "exception",
     "owed a D4 client: `run --serve-metrics` is started and stopped, "
     "nothing fetches `/metrics` or `/flow`"),

    # --------------------------------------------------------------- paper
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
    ("repro.core.events:EventService.add_relay", "paper",
     "§2.4: control events relayed across nodes"),
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
    ("repro.mbt.constraints:Constraint.inherit", "paper",
     "§3.1 / §4: constraint inheritance"),
    ("repro.mbt.constraints:Constraint.most_urgent", "paper",
     "§3.1 / §4: constraint inheritance"),
    ("repro.mbt.constraints:Constraint.is_more_urgent_than", "paper",
     "§4: a donated constraint replaces a less urgent one"),
    ("repro.mbt.thread:MThread.donate", "paper",
     "§4: priority inheritance on synchronous calls"),
    ("repro.mbt.thread:MThread.effective_priority", "paper",
     "§4: priority inheritance on synchronous calls"),
    ("repro.mbt.scheduler:Scheduler._call_constraint", "paper",
     "§4: priority inheritance on synchronous calls"),
    ("repro.mbt.scheduler:Scheduler._other_ready", "paper",
     "§4: preemption check behind synchronous calls"),
    ("repro.mbt.scheduler:Scheduler._block_until", "paper",
     "§4: the real-clock arm of blocking"),
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
     "Fig. 9(a) as N disconnected chains: the multi-core preset of the "
     "legacy `BENCH_multicore.json` report"),

    # -------------------------------------------------------- verification
    # The checker package is verification as a whole; everything else is
    # named, with the reason it is kept.
    ("repro.check.*", "verification", "the checker; the tests are its driver"),
    ("repro.api:Pipeline.certify", "verification",
     "the checker's entry on the run spec"),
    ("repro.api:Pipeline.with_engine_options", "verification",
     "the checker: `PipelineUnderTest.from_lang(SRC, **engine_kwargs)` "
     "states its engine kwargs through it"),
    ("repro.mbt.tracing:format_*", "verification",
     "the checker's output: the one trace formatter deadlock reports and "
     "exploration failures quote"),
    ("repro.mbt.scheduler:Scheduler.trace_events", "verification",
     "trace inspection: the switch / block events the scheduler tests "
     "assert on"),
    ("repro.mbt.scheduler:Scheduler._*_linear", "verification",
     "linear-scan oracle the ready queue is checked against (settled: stays "
     "in `mbt/scheduler.py`)"),
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
    ("repro.mbt.scheduler:Scheduler.run_until_idle", "verification",
     "the substrate tests' spelling of `run()` to quiescence (12 files)"),
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
    ("repro.media.batch:_ColumnarBatch.*", "verification",
     "reference accessor the columnar fast paths are compared against"),
    ("repro.media.batch:_decode_frame_one", "verification",
     "per-chunk decode oracle of the run codec"),
    ("repro.media.batch:_negative_field", "verification",
     "input validation: a forged negative field in a run is refused"),
    ("repro.media.arrays:payload_region", "verification",
     "reference construction the one-pass region fill is compared against"),
    ("repro.media.arrays:take", "verification",
     "reference construction the columnar `select` is compared against"),
    ("repro.net.marshal:decode_batch", "verification",
     "list-returning oracle of `decode_batch_views`"),
    ("repro.net.mux:MuxStream.send_frame", "verification",
     "oracle: the frame-per-write send the frame trains are compared "
     "against (`tests/property/test_mux_trains.py`)"),
    ("repro.net.mux:_frame_cost", "verification",
     "oracle: item count of a frame whose sender did not state it"),
    ("repro.net.mux:StreamMux.send_link_eos", "verification",
     "error path: the shared link closes under live streams"),
    ("repro.net.mux:StreamMux._rx_link_eos", "verification",
     "error path: a link-level EOS fans out to every open stream"),
    ("repro.net.socketlink:InProcessLink.send_frame", "verification",
     "the checker's wire: the deterministic in-process link under "
     "schedule exploration, frame leg"),
    ("repro.net.protocols:Transport.receiver_loss_sample", "verification",
     "declared default of the transport contract (docs/RUNTIME.md \"Seams "
     "and their contracts\"): a wire that never loses; `tests/net/"
     "test_transport_contract.py::TestDeclaredDefaults`"),
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
    ("repro.net.socketlink:SocketLink.wait", "verification",
     "io-source interface on a bare link (the shard and fabric loops wait "
     "on the mux or on `select`)"),
    ("repro.net.socketlink:SocketLink.tcp_pair", "verification",
     "the TCP twin of `pair` the transport tests drive; the sockets it "
     "wraps (`tcp_socketpair`) are D4-reached"),
    ("repro.net.network:Network.nodes", "verification",
     "reference accessor: the topology a test built"),
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
     "reference accessor: a session's threads, for the isolation tests "
     "and the legacy `BENCH_multitenant.json` report"),
    ("repro.fabric.session:SessionFabric.completed", "verification",
     "reference accessor: sessions that ran to completion"),
    ("repro.mbt.scheduler:Scheduler.tenant", "verification",
     "reference accessor: a tenant's account by name"),
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
]

#: Why a parameter docs/REACH.md's appendix lists is still there:
#: ``(function pattern, parameter, reason)``, first match.  An entry no
#: line here explains reads UNDECIDED and fails ``tools/reach.py``.
ONE_SIGNATURE = ("one entry signature for single- and multi-port "
                 "components: the runtime always passes the port, tees and "
                 "the zip buffer read it")
INJECTION = "injection seam: a test substitutes a fake through it"
KEPT_PARAMETERS = [
    ("*", "port", ONE_SIGNATURE),
    ("repro.__main__:main", "argv",
     INJECTION + " (`tests/core/test_cli.py` runs the CLI in-process)"),
    ("repro.feedback.sensors:MetricSensor.__init__", "now",
     INJECTION + " (a scripted clock)"),
    ("repro.obs.dashboard:render_top", "now", INJECTION),
    ("repro.obs.dashboard:render_top", "width", INJECTION),
    ("repro.obs.dashboard:render_top", "fabric", INJECTION),
    ("repro.obs.dashboard:Dashboard.run_plain", "out",
     INJECTION + " (a StringIO for stdout)"),
    ("repro.obs.exporters:chrome_trace", "end",
     "closes the last running slice of a bare event list, which has no "
     "clock to ask (a scheduler source knows its own time): the exporter "
     "tests' input"),
    ("repro.api:Pipeline.deploy", "placement",
     "the hand-placed deploy in one call; " + HAND_PLACED),
    ("repro.deploy.placement:Placement.auto", "costs",
     "cost-weighted planning, which `plan_shards` reads; " + HAND_PLACED),
    ("repro.obs.slo:Objective.__init__", "budget",
     "the error-budget policy of `with_slo`: product surface (ROADMAP "
     "item 6 leaves `obs/slo.py` to a reviewer)"),
    ("repro.obs.slo:Objective.__init__", "burn_alert", "as `budget`"),
]
