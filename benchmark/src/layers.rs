//! The traced pass: per-layer numbers, taken from outside.
//!
//! Each layer (= crate) is timed by calling its public functions over
//! the workload's own packets, under a span of the benchmark's recorder.
//! The in-pipeline view comes from stepped runs with `profile_stages`,
//! whose stage totals are laid into the run's span as aggregate
//! children. Nothing here feeds an end-to-end metric: those are taken
//! with all of this off.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use retina_conntrack::{
    ConnKey, ConnTable, FiveTuple, Reassembled, StreamReassembler, TimeoutConfig,
};
use retina_core::util::rdtsc;
use retina_core::{
    CompiledFilter, FilterFns, Mbuf, ParsedPacket, RunReport, RuntimeConfig, TraceConfig,
};
use retina_filter::{PacketVerdict, SubscriptionSet};
use retina_nic::{RssHasher, VirtualNic};
use retina_protocols::{Direction, ParseResult, ProbeResult};

use crate::e2e::{
    offline_run, pcap_read, pcap_write, stepped_run, validate, Options, Outcome, Prepared,
    SteppedRun, Validation,
};
use crate::spans::{Aggregate, Recorder};
use crate::spec::{PER_LAYER, STAGES};
use crate::stats::{median, percentile};
use crate::workloads::{tls_only, Datatype, Packets, Workload};

/// Rounds of each layer replay; the metric is the median round.
const ROUNDS: usize = 3;
/// Strided lookups timed at the workload's peak table size.
const LOOKUPS: usize = 100_000;
/// Touches between `ConnTable::advance` calls in the replay: the stepped
/// driver's cadence (`rx_batch` 4 × `advance_every` 64).
const ADVANCE_EVERY: usize = 256;
/// Payload segments per direction offered to the protocol parsers.
const PROBE_SEGMENTS: usize = 2;
/// Span names of the six stages, in `spec::STAGES` order.
const STAGE_SPANS: [&str; 6] = [
    "core.packet_filter",
    "core.conn_tracking",
    "core.reassembly",
    "core.app_parsing",
    "core.session_filter",
    "core.callbacks",
];

/// What the traced pass produced.
pub struct Traced {
    /// Every per-layer metric, in `spec::PER_LAYER` order.
    pub metrics: Vec<(String, f64)>,
    /// The pass's spans.
    pub recorder: Recorder,
    /// Timestamp-counter cycles per nanosecond.
    pub cycles_per_ns: f64,
    /// Packets pushed through a checked run.
    pub attempted: u64,
    /// Packets of runs that failed a check, plus NIC-lost frames.
    pub failed: u64,
    /// Violated checks; empty means correct.
    pub problems: Vec<String>,
}

/// Timestamp-counter cycles per nanosecond, from a 50 ms spin.
fn calibrate() -> f64 {
    let (t0, c0) = (Instant::now(), rdtsc());
    while t0.elapsed().as_millis() < 50 {
        std::hint::spin_loop();
    }
    rdtsc().wrapping_sub(c0) as f64 / t0.elapsed().as_nanos() as f64
}

/// `total / count`, or 0 when the workload never reaches the layer.
fn per(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// `a / b`, or 0 when `b` was never measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A frame that parsed, with its index into the workload's packets.
type Parsed = (usize, ParsedPacket);

/// One packet the connection tracker would be handed.
struct Touch {
    /// Index into the parsed packets.
    pkt: usize,
    hash: u32,
    key: ConnKey,
    ts: u64,
}

/// State shared by the layer replays of one pass.
struct Pass<'a> {
    w: &'a Workload,
    packets: &'a Packets,
    opts: &'a Options,
    config: RuntimeConfig,
    rec: Recorder,
    cycles_per_ns: f64,
    metrics: Vec<(String, f64)>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Pass<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn ns(&self, cycles: f64) -> f64 {
        cycles / self.cycles_per_ns
    }

    /// Runs `work` [`ROUNDS`] times on freshly `prepare`d state, each
    /// under a span called `name`. Returns the last output and the
    /// median cycles.
    fn rounds<S, T>(
        &mut self,
        name: &str,
        items: usize,
        mut prepare: impl FnMut() -> S,
        mut work: impl FnMut(S) -> T,
    ) -> (T, f64) {
        let mut cycles = Vec::with_capacity(ROUNDS);
        let mut last = None;
        for _ in 0..ROUNDS {
            let state = prepare();
            let id = self.rec.enter(name);
            let out = black_box(work(state));
            cycles.push(self.rec.exit(id, items as u64) as f64);
            last = Some(out); // the previous round's output drops here, outside the span
        }
        (last.expect("ROUNDS > 0"), median(&cycles))
    }

    /// trafficgen and pcap: generate again and round-trip through a
    /// capture, under spans; the same seed must give the same inputs.
    fn inputs(&mut self) {
        let n = self.packets.len();
        let id = self.rec.enter("trafficgen.generate");
        let again = self.w.traffic(self.opts.seed, self.opts.shrink);
        let gen_cycles = self.rec.exit(id, again.len() as u64) as f64;
        self.put(
            "trafficgen.gen_ns_per_pkt",
            per(self.ns(gen_cycles), again.len()),
        );

        let id = self.rec.enter("pcap.write");
        let capture = pcap_write(&again);
        self.rec.exit(id, again.len() as u64);
        let id = self.rec.enter("pcap.read");
        let reread = pcap_read(&capture);
        let read_cycles = self.rec.exit(id, reread.len() as u64) as f64;
        self.put("pcap.read_ns_per_pkt", per(self.ns(read_cycles), n));
        if reread.len() != n || reread.iter().zip(self.packets).any(|(a, b)| a != b) {
            self.problems
                .push("regenerating from the seed (through a pcap) gave different packets".into());
        }
    }

    /// wire: parse every frame.
    fn wire(&mut self) -> Vec<Parsed> {
        let packets = self.packets;
        let (fails, cycles) = self.rounds(
            "wire.parse",
            packets.len(),
            || (),
            |()| {
                let mut fails = 0u64;
                for (frame, _) in packets {
                    if black_box(ParsedPacket::parse(black_box(frame.as_slice()))).is_err() {
                        fails += 1;
                    }
                }
                fails
            },
        );
        self.put("wire.parse_ns_per_pkt", per(self.ns(cycles), packets.len()));
        self.put("wire.parse_fail_share", per(fails as f64, packets.len()));
        packets
            .iter()
            .enumerate()
            .filter_map(|(i, (frame, _))| {
                ParsedPacket::parse(frame.as_slice()).ok().map(|p| (i, p))
            })
            .collect()
    }

    /// nic, first half: the symmetric RSS hash of every parsed packet.
    fn rss(&mut self, parsed: &[Parsed]) -> Vec<u32> {
        let hasher = RssHasher::symmetric();
        let (_, cycles) = self.rounds(
            "nic.rss",
            parsed.len(),
            || (),
            |()| {
                parsed
                    .iter()
                    .fold(0u32, |acc, (_, p)| acc ^ hasher.hash_packet(black_box(p)))
            },
        );
        self.put("nic.rss_ns_per_pkt", per(self.ns(cycles), parsed.len()));
        parsed.iter().map(|(_, p)| hasher.hash_packet(p)).collect()
    }

    /// filter: compile the union; evaluate it interpreted (what the
    /// runtime does) and as `filter_union!` static code.
    fn filter(&mut self, parsed: &[Parsed]) -> CompiledFilter {
        fn matches<F: FilterFns + ?Sized>(filter: &F, parsed: &[Parsed]) -> u64 {
            parsed
                .iter()
                .filter(|(_, p)| !black_box(filter.packet_filter_set(black_box(p))).is_no_match())
                .count() as u64
        }
        let sources = self.w.filter_sources();
        let registry = self.config.filter_registry.clone();
        let (filter, compile) = self.rounds(
            "filter.compile",
            1,
            || (),
            |()| {
                CompiledFilter::build_union(&sources, &registry).expect("workload filters compile")
            },
        );
        let (interp_matches, interp) = self.rounds(
            "filter.packet_interp",
            parsed.len(),
            || (),
            |()| matches(&filter, parsed),
        );
        let codegen = (self.w.codegen)();
        let (codegen_matches, static_code) = self.rounds(
            "filter.packet_codegen",
            parsed.len(),
            || (),
            |()| matches(&codegen, parsed),
        );
        if interp_matches != codegen_matches {
            self.problems.push(format!(
                "interpreted filter passes {interp_matches} packets, generated code {codegen_matches}"
            ));
        }
        self.put("filter.compile_us", self.ns(compile) / 1e3);
        self.put(
            "filter.packet_ns_per_pkt",
            per(self.ns(interp), parsed.len()),
        );
        self.put(
            "filter.packet_match_share",
            per(interp_matches as f64, parsed.len()),
        );
        self.put(
            "filter.packet_codegen_ns_per_pkt",
            per(self.ns(static_code), parsed.len()),
        );
        self.put("filter.interp_over_codegen", ratio(interp, static_code));
        filter
    }

    /// nic, second half: one-thread ingest + `rx_burst` behind the
    /// workload's hardware rules.
    fn nic(&mut self, filter: &CompiledFilter) {
        let packets = self.packets;
        let config = self.config.clone();
        let rules = filter
            .hw_rules(config.device.caps, &config.filter_registry)
            .expect("workload filters synthesize hw rules");
        let (stats, cycles) = self.rounds(
            "nic.ingest_rx",
            packets.len(),
            || {
                let nic = VirtualNic::new(&config.device);
                for rule in &rules {
                    nic.install_rule(rule.clone())
                        .expect("the runtime installs these same rules");
                }
                nic
            },
            |nic| {
                let mut burst = Vec::with_capacity(config.burst);
                // Chunks no larger than the ring: ingest never meets a
                // full ring, so nothing is lost and no second thread is
                // needed.
                for chunk in packets.chunks(config.device.ring_capacity) {
                    for (frame, ts) in chunk {
                        black_box(nic.ingest(frame.clone(), *ts));
                    }
                    while nic.rx_burst(0, &mut burst, config.burst) > 0 {
                        burst.clear();
                    }
                }
                nic.stats()
            },
        );
        if stats.lost() != 0 || !stats.fully_attributed() {
            self.problems.push(format!(
                "nic replay lost or misattributed frames: {stats:?}"
            ));
        }
        self.put(
            "nic.ingest_rx_ns_per_pkt",
            per(self.ns(cycles), packets.len()),
        );
        self.put("nic.hw_rules", rules.len() as f64);
        self.put(
            "nic.hw_drop_share",
            per(stats.hw_dropped as f64, packets.len()),
        );
    }

    /// core and telemetry: alternate untraced / `profile_stages` /
    /// sampled-trace stepped runs for the time budget. Tracing may change
    /// what a run costs, never what it delivers. Returns the untraced
    /// run's report and outcome.
    fn stepped_runs(&mut self) -> Option<(RunReport, Outcome)> {
        let n = self.packets.len();
        let profiled = RuntimeConfig {
            profile_stages: true,
            ..RuntimeConfig::default()
        };
        let variants: [(&str, RuntimeConfig, Option<TraceConfig>); 3] = [
            ("core.run_stepped", RuntimeConfig::default(), None),
            ("core.run_stepped.profile_stages", profiled, None),
            (
                "core.run_stepped.trace_sampled",
                RuntimeConfig::default(),
                Some(TraceConfig::default()),
            ),
        ];
        let mut runs: [Vec<SteppedRun>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let started = Instant::now();
        let mut round = 0u64;
        while self.problems.len() < 3
            && (runs[0].len() < self.opts.min_reps
                || started.elapsed().as_secs_f64() < self.opts.seconds)
        {
            for (slot, (name, cfg, trace)) in variants.iter().enumerate() {
                self.attempted += n as u64;
                let span = Some((&mut self.rec, *name));
                match stepped_run(
                    self.w,
                    cfg.clone(),
                    trace.clone(),
                    self.packets,
                    round,
                    span,
                ) {
                    Ok(run) => runs[slot].push(run),
                    Err(e) => {
                        self.failed += n as u64;
                        self.problems.push(format!("{name} round {round}: {e}"));
                    }
                }
            }
            round += 1;
        }
        let untraced = runs[0]
            .first()
            .map(|r| (r.report.clone(), r.outcome.clone()));
        for (slot, (name, _, _)) in variants.iter().enumerate() {
            if runs[slot]
                .iter()
                .any(|r| Some(&r.outcome) != untraced.as_ref().map(|(_, o)| o))
            {
                self.failed += n as u64;
                self.problems.push(format!(
                    "{name}: delivers differently from the untraced run"
                ));
            }
        }
        let secs = |slot: usize| {
            let v: Vec<f64> = runs[slot].iter().map(|r| r.rep.secs).collect();
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        self.put("core.profile_overhead", ratio(secs(1), secs(0)));
        self.put("telemetry.trace_sampled_overhead", ratio(secs(2), secs(0)));

        // Lay every profiled run's stage totals into its span, nested the
        // way the timers in tracker.rs nest: conn_tracking ⊃ reassembly ⊃
        // {app_parsing, session_filter}. Stage figures are then read off
        // the run of median duration.
        runs[1].sort_by(|a, b| a.rep.secs.partial_cmp(&b.rep.secs).expect("finite times"));
        let mut median_run = None;
        for (k, run) in runs[1].iter().enumerate() {
            let stages = run.report.stages();
            let agg = |i: usize, children| Aggregate {
                name: STAGE_SPANS[i],
                cycles: stages[i].1.cycles,
                items: stages[i].1.runs,
                children,
            };
            let inner = [agg(3, &[]), agg(4, &[])];
            let reassembly = [agg(2, &inner)];
            let span = run.span.expect("asked for a span");
            // Appended depth-first, which is exactly `STAGES` order.
            let first = self
                .rec
                .add_aggregates(span, &[agg(0, &[]), agg(1, &reassembly), agg(5, &[])]);
            if k == runs[1].len() / 2 {
                median_run = Some((span.index(), first, stages));
            }
        }
        let own = self.rec.self_cycles();
        for (i, stage) in STAGES.iter().enumerate() {
            let (reach, cycles, p99) = median_run.as_ref().map_or((0.0, 0.0, 0.0), |m| {
                let s = &m.2[i].1;
                (
                    per(s.runs as f64, n),
                    per(own[m.1 + i] as f64, n),
                    s.hist.p99() as f64,
                )
            });
            self.put(&format!("core.{stage}.reach"), reach);
            self.put(&format!("core.{stage}.self_cycles_per_pkt"), cycles);
            self.put(&format!("core.{stage}.p99_cycles"), p99);
        }
        // What the run's own span keeps after its stage children are
        // subtracted is what the in-program ledger cannot explain.
        let unattributed = median_run.as_ref().map_or(0.0, |m| {
            ratio(own[m.0] as f64, self.rec.spans()[m.0].cycles() as f64)
        });
        self.put("core.unattributed_share", unattributed);

        let report = untraced.as_ref().map(|(r, _)| r);
        let count = |f: fn(&RunReport) -> u64| report.map_or(0.0, |r| f(r) as f64);
        self.put(
            "core.deliveries_per_kpkt",
            per(count(RunReport::delivered) * 1e3, n),
        );
        self.put(
            "core.conns_per_kpkt",
            per(count(|r| r.cores.conns_created) * 1e3, n),
        );
        self.put("core.conns_peak", count(|r| r.cores.conns_peak));
        self.put(
            "conntrack.bytes_per_conn",
            per(
                count(|r| r.conn_arena_bytes as u64),
                count(|r| r.cores.conns_peak) as usize,
            ),
        );
        untraced
    }

    /// The `(rss_hash, key, ts)` sequence the tracker would see: every
    /// packet some non-packet-level subscription still cares about after
    /// the packet filter.
    fn touches(&self, filter: &CompiledFilter, parsed: &[Parsed], hashes: &[u32]) -> Vec<Touch> {
        let mut packet_level = SubscriptionSet::empty();
        for (i, sub) in self.w.subs.iter().enumerate() {
            if sub.datatype == Datatype::ZcFrame {
                packet_level.insert(i);
            }
        }
        parsed
            .iter()
            .enumerate()
            .filter_map(|(j, (i, pkt))| {
                let v = filter.packet_filter_set(pkt);
                let rest = PacketVerdict {
                    matched: v.matched - packet_level,
                    live: v.live,
                    frontiers: v.frontiers,
                };
                (!rest.is_no_match()).then(|| Touch {
                    pkt: j,
                    hash: hashes[j],
                    key: ConnKey::from_packet(pkt),
                    ts: self.packets[*i].1,
                })
            })
            .collect()
    }

    /// conntrack, table half: replay the touches into a `ConnTable`
    /// (inserts, hits, timer-wheel expiry), then time strided lookups at
    /// the workload's peak table size.
    fn conn_table(&mut self, parsed: &[Parsed], touches: &[Touch], conns_peak: usize) {
        let tuple = |t: &Touch| FiveTuple::from_packet(&parsed[t.pkt].1);
        let mut touch_rounds = Vec::with_capacity(ROUNDS);
        let mut advance_rounds = Vec::with_capacity(ROUNDS);
        let (mut inserts, mut expired) = (0u64, 0u64);
        for _ in 0..ROUNDS {
            let mut table: ConnTable<u64> = ConnTable::new(TimeoutConfig::default());
            (inserts, expired) = (0, 0);
            let mut advance_cycles = 0u64;
            let id = self.rec.enter("conntrack.touch");
            for (k, t) in touches.iter().enumerate() {
                let entry = table.get_or_insert_with(t.hash, t.key, t.ts, || {
                    inserts += 1;
                    (tuple(t), 0u64)
                });
                entry.last_seen_ns = t.ts;
                if (k + 1) % ADVANCE_EVERY == 0 {
                    let c0 = rdtsc();
                    table.advance(t.ts, |_, _| expired += 1);
                    advance_cycles += rdtsc().wrapping_sub(c0);
                }
            }
            let total = self.rec.exit(id, touches.len() as u64);
            let advance_cycles = advance_cycles.min(total);
            self.rec.add_aggregates(
                id,
                &[Aggregate {
                    name: "conntrack.advance",
                    cycles: advance_cycles,
                    items: expired,
                    children: &[],
                }],
            );
            touch_rounds.push((total - advance_cycles) as f64);
            advance_rounds.push(advance_cycles as f64);
        }
        self.put(
            "conntrack.touch_ns_per_pkt",
            per(self.ns(median(&touch_rounds)), touches.len()),
        );
        self.put("conntrack.insert_share", per(inserts as f64, touches.len()));
        self.put(
            "conntrack.advance_ns_per_expiry",
            per(self.ns(median(&advance_rounds)), expired as usize),
        );

        // Fill a table with `conns_peak` of the workload's own
        // connections, then hit them in a strided (cache-hostile) order.
        let mut cycles: Vec<f64> = Vec::with_capacity(LOOKUPS);
        if conns_peak > 0 {
            let mut table: ConnTable<u64> = ConnTable::new(TimeoutConfig::none());
            let mut keys: Vec<(u32, ConnKey)> = Vec::with_capacity(conns_peak);
            for t in touches {
                if keys.len() == conns_peak {
                    break;
                }
                let before = table.len();
                table.get_or_insert_with(t.hash, t.key, t.ts, || (tuple(t), 0u64));
                if table.len() > before {
                    keys.push((t.hash, t.key));
                }
            }
            let id = self.rec.enter("conntrack.lookup");
            let mut idx = 0usize;
            for _ in 0..LOOKUPS {
                idx = (idx + 0x9E37_79B1) % keys.len(); // golden-ratio stride
                let (hash, key) = &keys[idx];
                let c0 = rdtsc();
                let hit = black_box(table.get_mut(*hash, key)).is_some();
                cycles.push(rdtsc().wrapping_sub(c0) as f64);
                assert!(hit, "every key was inserted");
            }
            self.rec.exit(id, LOOKUPS as u64);
        }
        let at = |p: f64| {
            if cycles.is_empty() {
                0.0
            } else {
                percentile(&cycles, p)
            }
        };
        self.put("conntrack.lookup_p50_cycles", at(50.0));
        self.put("conntrack.lookup_p99_cycles", at(99.0));
    }

    /// conntrack, reassembly half: every TCP payload segment the tracker
    /// would see, offered to its connection-and-direction's reassembler.
    fn reassembly(&mut self, parsed: &[Parsed], touches: &[Touch]) {
        struct Segment {
            reassembler: usize,
            seq: u32,
            consumed: u32,
            pkt: usize,
        }
        let packets = self.packets;
        let capacity = self.config.ooo_capacity;
        let mut directions: HashMap<(ConnKey, bool), usize> = HashMap::new();
        let mut segments: Vec<Segment> = Vec::new();
        for t in touches {
            let pkt = &parsed[t.pkt].1;
            let (Some(flags), Some(seq)) = (pkt.tcp_flags(), pkt.tcp_seq()) else {
                continue;
            };
            let consumed = pkt.payload_len() as u32 + u32::from(flags.fin());
            if consumed == 0 || flags.syn() {
                continue;
            }
            let forward = (pkt.src_ip, pkt.src_port) <= (pkt.dst_ip, pkt.dst_port);
            let next = directions.len();
            segments.push(Segment {
                reassembler: *directions.entry((t.key, forward)).or_insert(next),
                seq,
                consumed,
                pkt: t.pkt,
            });
        }
        let (ooo, cycles) = self.rounds(
            "conntrack.reassembly",
            segments.len(),
            || {
                let reassemblers: Vec<StreamReassembler> = (0..directions.len())
                    .map(|_| StreamReassembler::new(capacity))
                    .collect();
                let mbufs: Vec<Mbuf> = segments
                    .iter()
                    .map(|s| Mbuf::from_bytes(packets[parsed[s.pkt].0].0.clone()))
                    .collect();
                (reassemblers, mbufs)
            },
            |(mut reassemblers, mbufs)| {
                let mut ooo = 0u64;
                for (s, mbuf) in segments.iter().zip(&mbufs) {
                    let r = &mut reassemblers[s.reassembler];
                    match r.offer(s.seq, s.consumed, mbuf) {
                        // As the tracker does after every in-order segment.
                        Reassembled::InOrder => drop(black_box(r.flush())),
                        Reassembled::Buffered => ooo += 1,
                        Reassembled::Duplicate | Reassembled::OverCapacity => {}
                    }
                }
                ooo
            },
        );
        self.put(
            "conntrack.reasm_ns_per_seg",
            per(self.ns(cycles), segments.len()),
        );
        self.put("conntrack.reasm_ooo_share", per(ooo as f64, segments.len()));
    }

    /// protocols: probe and parse each connection's first payload
    /// segments — when the workload's filter sends connections that way.
    fn protocols(&mut self, filter: &CompiledFilter, parsed: &[Parsed], touches: &[Touch]) {
        struct Head {
            originator: (std::net::IpAddr, u16),
            segments: Vec<(Direction, usize)>,
            taken: [usize; 2],
        }
        let packets = self.packets;
        let registry = self.config.parsers.clone();
        let payload = |idx: usize| {
            let (i, pkt) = &parsed[idx];
            pkt.payload(packets[*i].0.as_slice())
        };
        let mut heads: Vec<Head> = Vec::new();
        if filter.needs_conn_layer() || filter.needs_session_layer() {
            let mut index: HashMap<ConnKey, usize> = HashMap::new();
            for t in touches {
                let pkt = &parsed[t.pkt].1;
                let slot = *index.entry(t.key).or_insert_with(|| {
                    heads.push(Head {
                        originator: (pkt.src_ip, pkt.src_port),
                        segments: Vec::new(),
                        taken: [0; 2],
                    });
                    heads.len() - 1
                });
                if pkt.payload_len() == 0 {
                    continue;
                }
                let head = &mut heads[slot];
                let (dir, d) = if (pkt.src_ip, pkt.src_port) == head.originator {
                    (Direction::ToServer, 0)
                } else {
                    (Direction::ToClient, 1)
                };
                if head.taken[d] < PROBE_SEGMENTS {
                    head.taken[d] += 1;
                    head.segments.push((dir, t.pkt));
                }
            }
            heads.retain(|h| !h.segments.is_empty());
        }
        let probers = registry.new_parsers(&filter.conn_protocols());
        let probe_calls = heads.iter().map(|h| h.segments.len()).sum::<usize>() * probers.len();
        let (identified, probe_cycles) = self.rounds(
            "protocols.probe",
            probe_calls,
            || (),
            |()| {
                heads
                    .iter()
                    .map(|head| {
                        let mut found = None;
                        for (dir, idx) in &head.segments {
                            for (p, parser) in probers.iter().enumerate() {
                                let verdict = black_box(parser.probe(payload(*idx), *dir));
                                if verdict == ProbeResult::Certain && found.is_none() {
                                    found = Some(p);
                                }
                            }
                        }
                        found
                    })
                    .collect::<Vec<Option<usize>>>()
            },
        );
        let parse_calls: usize = heads
            .iter()
            .zip(&identified)
            .filter(|(_, id)| id.is_some())
            .map(|(h, _)| h.segments.len())
            .sum();
        let (with_session, parse_cycles) = self.rounds(
            "protocols.parse",
            parse_calls,
            || (),
            |()| {
                let mut with_session = 0u64;
                for (head, id) in heads.iter().zip(&identified) {
                    let Some(p) = id else { continue };
                    let mut parser = registry
                        .new_parser(probers[*p].name())
                        .expect("prober came from this registry");
                    let mut sessions = 0;
                    for (dir, idx) in &head.segments {
                        match parser.parse(payload(*idx), *dir) {
                            ParseResult::Continue => {}
                            ParseResult::Done => sessions += parser.drain_sessions().len(),
                            ParseResult::Error => break,
                        }
                    }
                    with_session += u64::from(sessions > 0);
                }
                with_session
            },
        );
        self.put(
            "protocols.probe_ns_per_call",
            per(self.ns(probe_cycles), probe_calls),
        );
        self.put(
            "protocols.parse_ns_per_call",
            per(self.ns(parse_cycles), parse_calls),
        );
        self.put(
            "protocols.session_share",
            per(with_session as f64, heads.len()),
        );
    }

    /// The other drivers: the threaded validation runs, and `run_offline`
    /// against a stepped run of the same single `tls` subscription over
    /// this workload's first packets.
    fn other_drivers(&mut self, untraced: Option<&Outcome>) {
        let n = self.packets.len();
        let mut validation = Validation::default();
        if let Some(outcome) = untraced {
            let id = self.rec.enter("core.threaded_validation");
            validation = validate(self.w, self.packets, outcome);
            self.rec.exit(id, validation.offered);
            self.attempted += validation.offered;
            self.failed += validation.failed;
            self.problems.append(&mut validation.problems);
        }
        self.put("nic.mbuf_high_water", validation.mbuf_high_water as f64);
        self.put("core.threaded_ns_per_pkt", validation.threaded_ns_per_pkt);
        self.put(
            "core.threaded_lost_share",
            per(validation.lost as f64, validation.offered as usize),
        );

        let tls = tls_only();
        let keep = (self.w.offline_prefix / self.opts.shrink).clamp(1, n);
        let prefix: Packets = self.packets[..keep].to_vec();
        let (mut offline_s, mut stepped_s) = (Vec::new(), Vec::new());
        for round in 0..ROUNDS as u64 {
            self.attempted += 2 * keep as u64;
            let id = self.rec.enter("core.run_offline.tls");
            let offline = offline_run(tls, &prefix);
            self.rec.exit(id, keep as u64);
            let span = Some((&mut self.rec, "core.run_stepped.tls"));
            let stepped = stepped_run(tls, RuntimeConfig::default(), None, &prefix, round, span);
            match (offline, stepped) {
                (Ok((rep, outcome)), Ok(run)) => {
                    offline_s.push(rep.secs);
                    stepped_s.push(run.rep.secs);
                    if outcome.delivered != run.outcome.delivered {
                        self.failed += keep as u64;
                        self.problems.push(format!(
                            "run_offline tls delivered {:?}, run_stepped tls {:?}",
                            outcome.delivered, run.outcome.delivered
                        ));
                    }
                }
                (offline, stepped) => {
                    self.failed += keep as u64;
                    self.problems.extend(offline.err());
                    self.problems.extend(stepped.err());
                }
            }
        }
        let offline_over_stepped = if stepped_s.is_empty() {
            0.0
        } else {
            ratio(median(&offline_s), median(&stepped_s))
        };
        self.put("core.offline_over_stepped", offline_over_stepped);
    }
}

/// Runs the traced pass of `w` on prepared traffic.
pub fn run(w: &Workload, prepared: &Prepared, opts: &Options) -> Traced {
    let mut pass = Pass {
        w,
        packets: &prepared.packets,
        opts,
        config: RuntimeConfig::default(),
        rec: Recorder::new(w.name),
        cycles_per_ns: calibrate(),
        metrics: Vec::with_capacity(PER_LAYER.len()),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let root = pass.rec.enter("benchmark.traced_pass");
    pass.inputs();
    let parsed = pass.wire();
    let hashes = pass.rss(&parsed);
    let filter = pass.filter(&parsed);
    pass.nic(&filter);
    let untraced = pass.stepped_runs();
    let conns_peak = untraced
        .as_ref()
        .map_or(0, |(r, _)| r.cores.conns_peak as usize);
    let touches = pass.touches(&filter, &parsed, &hashes);
    pass.conn_table(&parsed, &touches, conns_peak);
    pass.reassembly(&parsed, &touches);
    pass.protocols(&filter, &parsed, &touches);
    pass.other_drivers(untraced.as_ref().map(|(_, o)| o));
    pass.rec.exit(root, prepared.packets.len() as u64);

    // Reported in the contract's order, whatever order the layers ran in.
    let position = |name: &str| PER_LAYER.iter().position(|d| d.name == name);
    pass.metrics.sort_by_key(|(name, _)| position(name));
    Traced {
        metrics: pass.metrics,
        recorder: pass.rec,
        cycles_per_ns: pass.cycles_per_ns,
        attempted: pass.attempted,
        failed: pass.failed,
        problems: pass.problems,
    }
}
