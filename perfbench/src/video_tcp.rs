//! `video_tcp`: the network path and nothing else — the Fig. 1
//! distributed video between two real-clock kernels over loopback TCP.
//!
//! ```text
//! producer kernel: frames -> FreePump -> Fragmenter -> Marshal<Packet> (pooled) -> NetSendEnd
//! consumer kernel: inbox -> FreePump -> Unmarshal<Packet> -> Defragmenter -> verify
//!                  -> Decoder (free cost) -> sink
//! ```
//!
//! The source keeps [`IN_FLIGHT`] frames in flight, and control probes go
//! to the consumer pipeline at a fixed interval while the stream flows.
//!
//! The consumer inbox does not block when empty (`OnEmpty::ReturnNone`):
//! the pump parks until the next arrival between cycles. A blocking inbox
//! can lose the wakeup of an external put and hang the stream now and
//! then, so it is left out (see README.md).
//!
//! After each segment's timed phase an idle check runs: the source holds
//! the stream, the consumer drains its inbox dry, and [`IDLE_PROBES`]
//! probes go to the now idle consumer.

use crate::common::{
    across, bind_segment, binding_note, median, median_of, now_ns, os_threads, per_segment,
    tail_note, timed_setups, window_medians, windows_in, EndToEnd, Outcome, Rng, RunCfg, Tally,
    Watchdog, SEGMENTS, WINDOW,
};
use crate::probes::Probes;
use crate::trace::{self, IdFrom, Traced};
use infopipes::{
    payload_copy_count, BufferPool, BufferProbe, BufferSpec, Consumer, ControlEvent, EventCtx,
    FreePump, Function, Item, ItemType, OnEmpty, PayloadBytes, Pipeline, PoolStats, Producer,
    RunningPipeline, Stage, StageCtx, Typespec,
};
use mbthread::{Kernel, KernelConfig, KernelStats};
use media::{
    CompressedFrame, DecodeCost, Decoder, DecoderStats, Defragmenter, Fragmenter, GopStructure,
    Packet, RawFrame,
};
use netpipe::{
    Acceptor, Link, LinkStats, Marshal, NetSendEnd, TcpLink, TcpTransport, Transport, Unmarshal,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Frames the source keeps in flight: small enough that the consumer
/// inbox never refuses a packet (the largest frame is 15 packets).
pub const IN_FLIGHT: u64 = 16;
pub const WARMUP_FRAMES: u64 = 4096;
const PROBE_EVERY: Duration = Duration::from_millis(5);
/// Idle probes per segment, each with [`IDLE_DEADLINE`].
pub const IDLE_PROBES: u64 = 3;
/// An idle probe not handled within this is a failed operation.
const IDLE_DEADLINE: Duration = Duration::from_secs(1);
/// How long the held stream may take to drain before the idle probes.
const IDLE_DRAIN: Duration = Duration::from_secs(3);
/// Time the consumer gets to block on its empty inbox before idle probes.
const IDLE_SETTLE: Duration = Duration::from_millis(2);
pub const MTU: usize = 1400;
pub const INBOX: usize = 512;
/// Distinct generated frames; a multiple of the GOP so types line up.
const POOL_FRAMES: u64 = 9 * 57;
const P_BYTES: u64 = 4096;
const GOP: GopStructure = GopStructure {
    gop_size: 9,
    b_run: 2,
};
/// Traced runs record spans for one frame in this many.
const TRACE_EVERY: u64 = 8;
/// Probe receivers on the consumer: verify and sink.
const RECEIVERS: usize = 2;
const STAMPS: usize = 4096;

/// The generated stream: one payload per pool slot, sized by frame type.
fn generate(seed: u64) -> Vec<PayloadBytes> {
    let mut rng = Rng::new(seed);
    (0..POOL_FRAMES)
        .map(|seq| {
            let base = match GOP.frame_type(seq) {
                media::FrameType::I => 4 * P_BYTES,
                media::FrameType::P => P_BYTES,
                media::FrameType::B => P_BYTES / 2,
            };
            let len = rng.range(base * 4 / 5, base * 6 / 5) as usize;
            PayloadBytes::from_vec(rng.bytes(len))
        })
        .collect()
}

struct Shared {
    frames: Vec<PayloadBytes>,
    stop: AtomicBool,
    /// The source may issue frames below this sequence number.
    permit: AtomicU64,
    issued: AtomicU64,
    completed: AtomicU64,
    waiting: AtomicBool,
    gate: Mutex<()>,
    wake: Condvar,
    stamps: Vec<AtomicU64>,
    mismatched: AtomicU64,
    out_of_order: AtomicU64,
    eos: AtomicBool,
    /// `(seq, latency ns)` of every checked frame.
    samples: Mutex<Vec<(u64, u64)>>,
    probes: Probes,
    idle: Probes,
}

impl Shared {
    fn note(&self, event: &ControlEvent, receiver: usize) {
        self.probes.note(event, receiver);
        self.idle.note(event, receiver);
        if matches!(event, ControlEvent::Eos) && receiver == 1 {
            self.eos.store(true, Ordering::Release);
        }
    }

    fn open_gate(&self) {
        if self.waiting.load(Ordering::SeqCst) {
            let _g = self.gate.lock().expect("gate poisoned");
            self.wake.notify_one();
        }
    }
}

fn frame_id(item: &Item) -> Option<u64> {
    item.payload_ref::<CompressedFrame>()
        .map(|f| f.seq)
        .filter(|s| s % TRACE_EVERY == 0)
}

fn packet_frame_id(item: &Item) -> Option<u64> {
    item.payload_ref::<Packet>()
        .map(|p| p.frame_seq)
        .filter(|s| s % TRACE_EVERY == 0)
}

fn packet_id(item: &Item) -> Option<u64> {
    item.payload_ref::<Packet>()
        .filter(|p| p.frame_seq % TRACE_EVERY == 0)
        .map(|p| (p.frame_seq << 8) | u64::from(p.index))
}

/// Issues the generated frames, never more than [`IN_FLIGHT`] ahead of
/// the sink and never past the permit (the idle check holds the stream).
struct FrameSource {
    sh: Arc<Shared>,
    next: u64,
}

impl FrameSource {
    fn may_issue(&self) -> bool {
        let sh = &self.sh;
        self.next < sh.permit.load(Ordering::SeqCst)
            && self.next - sh.completed.load(Ordering::SeqCst) < IN_FLIGHT
    }
}

impl Stage for FrameSource {
    fn name(&self) -> &str {
        "frame-source"
    }
    fn offers(&self) -> Typespec {
        Typespec::with_item_type(ItemType::of::<CompressedFrame>())
    }
}

impl Producer for FrameSource {
    fn pull(&mut self, _: &mut StageCtx<'_, '_>) -> Option<Item> {
        let sh = Arc::clone(&self.sh);
        while !self.may_issue() {
            if sh.stop.load(Ordering::SeqCst) {
                return None;
            }
            let g = sh.gate.lock().expect("gate poisoned");
            sh.waiting.store(true, Ordering::SeqCst);
            if !self.may_issue() && !sh.stop.load(Ordering::SeqCst) {
                let _ = sh
                    .wake
                    .wait_timeout(g, Duration::from_millis(20))
                    .expect("gate poisoned");
            }
            sh.waiting.store(false, Ordering::SeqCst);
        }
        let seq = self.next;
        self.next += 1;
        sh.stamps[seq as usize % STAMPS].store(now_ns(), Ordering::Relaxed);
        sh.issued.store(self.next, Ordering::SeqCst);
        let frame = CompressedFrame {
            seq,
            pts_us: seq * 33_333,
            ftype: GOP.frame_type(seq),
            data: sh.frames[(seq % POOL_FRAMES) as usize].clone(),
        };
        Some(Item::cloneable(frame).with_seq(seq))
    }
}

/// Checks each reassembled frame against the generator's copy.
struct Verify {
    sh: Arc<Shared>,
    expected: u64,
}

impl Stage for Verify {
    fn name(&self) -> &str {
        "verify"
    }
    fn accepts(&self) -> Typespec {
        Typespec::with_item_type(ItemType::of::<CompressedFrame>())
    }
    fn on_event(&mut self, _: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        self.sh.note(event, 0);
    }
}

impl Function for Verify {
    fn convert(&mut self, item: Item) -> Option<Item> {
        let open = frame_id(&item)
            .filter(|_| trace::enabled())
            .map(|id| trace::open("bench.verify", id));
        let f = item
            .payload_ref::<CompressedFrame>()
            .expect("the defragmenter emits frames");
        let original = &self.sh.frames[(f.seq % POOL_FRAMES) as usize];
        if f.seq != self.expected {
            self.sh.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        if f.data != *original || f.ftype != GOP.frame_type(f.seq) {
            self.sh.mismatched.fetch_add(1, Ordering::Relaxed);
        }
        self.expected = f.seq + 1;
        if let Some(o) = open {
            trace::close(o);
        }
        Some(item)
    }
}

/// Counts each decoded frame, records its latency and opens the window.
struct Sink {
    sh: Arc<Shared>,
    expected: u64,
}

impl Stage for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn accepts(&self) -> Typespec {
        Typespec::with_item_type(ItemType::of::<RawFrame>())
    }
    fn on_event(&mut self, _: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        self.sh.note(event, 1);
    }
}

impl Consumer for Sink {
    fn push(&mut self, _: &mut StageCtx<'_, '_>, item: Item) {
        let raw = item.expect::<RawFrame>();
        let open = (trace::enabled() && raw.seq.is_multiple_of(TRACE_EVERY))
            .then(|| trace::open("bench.sink", raw.seq));
        let now = now_ns();
        if raw.seq != self.expected {
            self.sh.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        self.expected = raw.seq + 1;
        let stamp = self.sh.stamps[raw.seq as usize % STAMPS].load(Ordering::Relaxed);
        self.sh
            .samples
            .lock()
            .expect("sample store poisoned")
            .push((raw.seq, now.saturating_sub(stamp)));
        self.sh.completed.fetch_add(1, Ordering::SeqCst);
        self.sh.open_gate();
        if let Some(o) = open {
            trace::close(o);
        }
    }
}

struct Setup {
    kp: Kernel,
    kc: Kernel,
    producer: RunningPipeline,
    consumer: RunningPipeline,
    link: TcpLink,
    server_end: TcpLink,
    inbox: BufferProbe,
    pool: BufferPool,
    decoder: Arc<parking_lot::Mutex<DecoderStats>>,
    start_ms: f64,
}

fn set_up(sh: &Arc<Shared>) -> Setup {
    let kp = Kernel::new(KernelConfig::default());
    let kc = Kernel::new(KernelConfig::default());
    let transport = TcpTransport::new();
    let acceptor = transport.listen("127.0.0.1:0").expect("listen on loopback");
    let link = transport
        .connect(&acceptor.local_addr())
        .expect("connect over loopback");
    let server_end = acceptor.accept().expect("accept the producer");

    let consumer = Pipeline::new(&kc, "consumer");
    let (inbox, inbox_sender) = consumer.add_inbox(
        "net-in",
        BufferSpec::bounded(INBOX).on_empty(OnEmpty::ReturnNone),
    );
    let inbox_probe = consumer.buffer_probe(inbox).expect("the inbox is a buffer");
    let pump = consumer.add_pump("net-pump", FreePump::new());
    let unmarshal = consumer.add_function(
        "unmarshal",
        Traced::new(
            Unmarshal::<Packet>::new("unmarshal"),
            "netpipe.unmarshal",
            IdFrom::Output(packet_id),
        ),
    );
    let defrag = consumer.add_consumer(
        "defragment",
        Traced::new(
            Defragmenter::new(),
            "media.defrag",
            IdFrom::Input(packet_frame_id),
        ),
    );
    let verify = consumer.add_function(
        "verify",
        Verify {
            sh: Arc::clone(sh),
            expected: 0,
        },
    );
    let decoder = Decoder::new(GOP, DecodeCost::free());
    let decoder_stats = decoder.stats_handle();
    let decode = consumer.add_consumer(
        "decode",
        Traced::new(decoder, "media.decode", IdFrom::Input(frame_id)),
    );
    let sink = consumer.add_consumer(
        "sink",
        Sink {
            sh: Arc::clone(sh),
            expected: 0,
        },
    );
    let _ = inbox >> pump >> unmarshal >> defrag >> verify >> decode >> sink;
    server_end
        .bind_receiver(Some(inbox_sender), |_| {})
        .expect("bind the consumer inbox");

    let producer = Pipeline::new(&kp, "producer");
    let pool = BufferPool::new();
    let source = producer.add_producer(
        "frames",
        FrameSource {
            sh: Arc::clone(sh),
            next: 0,
        },
    );
    let ppump = producer.add_pump("pump", FreePump::new());
    let frag = producer.add_consumer(
        "fragment",
        Traced::new(
            Fragmenter::new(MTU),
            "media.fragment",
            IdFrom::Input(frame_id),
        ),
    );
    let marshal = producer.add_function(
        "marshal",
        Traced::new(
            Marshal::<Packet>::new("marshal").with_pool(&pool),
            "netpipe.marshal",
            IdFrom::Input(packet_id),
        ),
    );
    let send = producer.add_consumer(
        "net-send",
        Traced::new(
            NetSendEnd::new("net-send", link.clone()),
            "netpipe.send",
            IdFrom::Input(|_| trace::last_item()),
        ),
    );
    producer.set_transport(send, link.peer().to_string());
    let _ = source >> ppump >> frag >> marshal >> send;

    let t = Instant::now();
    let consumer = consumer.start().expect("the consumer plans");
    let producer = producer.start().expect("the producer plans");
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    Setup {
        kp,
        kc,
        producer,
        consumer,
        link,
        server_end,
        inbox: inbox_probe,
        pool,
        decoder: decoder_stats,
        start_ms,
    }
}

impl Setup {
    fn tear_down(self) {
        drop(self.producer);
        drop(self.consumer);
        self.kp.shutdown();
        self.kc.shutdown();
    }

    fn kstats(&self) -> KernelStats {
        let (p, c) = (self.kp.stats(), self.kc.stats());
        KernelStats {
            context_switches: p.context_switches + c.context_switches,
            messages_sent: p.messages_sent + c.messages_sent,
            sync_sends: p.sync_sends + c.sync_sends,
            timer_fires: p.timer_fires + c.timer_fires,
            threads_spawned: p.threads_spawned + c.threads_spawned,
        }
    }

    fn pools(&self) -> PoolStats {
        let (a, b) = (self.pool.stats(), self.server_end.pool_stats());
        PoolStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            ..PoolStats::default()
        }
    }
}

/// Counters read at one window boundary.
#[derive(Clone, Copy)]
struct Mark {
    tally: Tally,
    kstats: KernelStats,
    link: LinkStats,
    pools: PoolStats,
    copies: u64,
    allocs: u64,
}

fn mark(s: &Setup, completed: u64) -> Mark {
    Mark {
        tally: Tally::now(completed),
        kstats: s.kstats(),
        link: s.link.stats(),
        pools: s.pools(),
        copies: payload_copy_count(),
        allocs: crate::common::allocs(),
    }
}

/// What the idle check after a segment's timed phase saw.
#[derive(Default)]
struct IdleCheck {
    /// The consumer drained every frame in flight before the deadline.
    drained: bool,
    sent: u64,
    /// Latencies (µs) of idle probes that met their deadline.
    in_time: Vec<f64>,
}

/// What the load thread saw over one segment.
struct Load {
    /// Marks every [`WINDOW`] across the timed phase.
    marks: Vec<Mark>,
    first_timed_seq: u64,
    flow_probes: std::ops::Range<usize>,
    idle: IdleCheck,
    fill: Vec<f64>,
    threads: f64,
    stalled: bool,
}

/// The idle check: the source holds the stream, the consumer drains its
/// inbox dry, and each idle probe gets [`IDLE_DEADLINE`] to reach every
/// receiver.
fn idle_check(sh: &Shared, s: &Setup) -> IdleCheck {
    sh.permit.store(0, Ordering::SeqCst);
    let deadline = Instant::now() + IDLE_DRAIN;
    while sh.completed.load(Ordering::SeqCst) < sh.issued.load(Ordering::SeqCst) {
        if Instant::now() >= deadline {
            eprintln!(
                "idle check: the consumer did not drain within {IDLE_DRAIN:?}: checked {} of {}; \
                 inbox {:?}\nconsumer {}",
                sh.completed.load(Ordering::SeqCst),
                sh.issued.load(Ordering::SeqCst),
                s.inbox.stats(),
                s.kc.thread_dump()
            );
            return IdleCheck::default();
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    std::thread::sleep(IDLE_SETTLE);
    let mut check = IdleCheck {
        drained: true,
        ..IdleCheck::default()
    };
    for _ in 0..IDLE_PROBES {
        let k = sh
            .idle
            .send(|ev| s.consumer.send_event(ev).expect("the consumer is running"))
            .expect("the idle probe table has room");
        check.sent += 1;
        let deadline = Instant::now() + IDLE_DEADLINE;
        while !sh.idle.complete(k) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
        if sh.idle.complete(k) {
            check
                .in_time
                .extend(sh.idle.results(k..k + 1).0.iter().map(|d| d.latency_us));
        }
    }
    check
}

/// Warms up, then keeps the stream flowing for `seconds`, sending probes
/// at a fixed interval and marking every window; then the idle check.
fn load(sh: &Shared, s: &Setup, seconds: f64, traced: bool) -> Load {
    let mut dog = Watchdog::new(0);
    let mut stalled = false;
    while sh.completed.load(Ordering::SeqCst) < WARMUP_FRAMES {
        if dog.stalled(sh.completed.load(Ordering::SeqCst)) {
            stalled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let windows = windows_in(seconds);
    let mut fill = Vec::new();
    trace::set_enabled(traced);
    let mut marks = vec![mark(s, sh.completed.load(Ordering::SeqCst))];
    let first_timed_seq = marks[0].tally.items;
    let first_flow = sh.probes.sent();
    let t0 = Instant::now();
    let mut next_probe = t0 + PROBE_EVERY;
    while !stalled && marks.len() <= windows {
        let now = Instant::now();
        if now >= t0 + WINDOW * marks.len() as u32 {
            marks.push(mark(s, sh.completed.load(Ordering::SeqCst)));
            continue;
        }
        if now >= next_probe {
            next_probe += PROBE_EVERY;
            let _ = sh.probes.send(|ev| {
                s.consumer.send_event(ev).expect("the consumer is running");
            });
        }
        if traced {
            fill.push(s.inbox.stats().fill as f64);
        }
        if dog.stalled(sh.completed.load(Ordering::SeqCst)) {
            stalled = true;
        }
        let next_window = t0 + WINDOW * marks.len() as u32;
        std::thread::sleep(next_probe.min(next_window).saturating_duration_since(now));
    }
    trace::set_enabled(false);
    // Read once, after the timed phase: the file read would otherwise
    // take the CPU from the stream while probes are in flight.
    let threads = os_threads();
    let flow_probes = first_flow..sh.probes.sent();
    if stalled {
        eprintln!(
            "STALL: no frame checked for {:?}; issued {}, checked {}",
            crate::common::STALL,
            sh.issued.load(Ordering::SeqCst),
            sh.completed.load(Ordering::SeqCst)
        );
        eprintln!("producer {}", s.kp.thread_dump());
        eprintln!("consumer {}", s.kc.thread_dump());
        eprintln!(
            "send link {:?}\nreceive link {:?}\ninbox {:?}",
            s.link.stats(),
            s.server_end.stats(),
            s.inbox.stats()
        );
    }
    let idle = if stalled {
        IdleCheck::default()
    } else {
        idle_check(sh, s)
    };
    Load {
        marks,
        first_timed_seq,
        flow_probes,
        idle,
        fill,
        threads,
        stalled,
    }
}

/// What one segment measured.
struct Segment {
    load: Load,
    lat_us: Vec<f64>,
    ctl_us: Vec<f64>,
    send_us: Vec<f64>,
    wait_us: Vec<f64>,
    missed: u64,
    issued: u64,
    completed: u64,
    mismatched: u64,
    out_of_order: u64,
    decoder: DecoderStats,
    sent: LinkStats,
    received: LinkStats,
    threads: usize,
    spans: Vec<trace::Span>,
}

impl Segment {
    fn tallies(&self) -> Vec<Tally> {
        self.load.marks.iter().map(|m| m.tally).collect()
    }
}

/// One segment: fresh set-ups (timed), then `seconds` of flow, the idle
/// check, and end of stream.
fn segment(
    seed: u64,
    seconds: f64,
    traced: bool,
    setup_s: &mut Vec<f64>,
    start_ms: &mut Vec<f64>,
) -> Segment {
    let sh = Arc::new(Shared {
        frames: generate(seed),
        stop: AtomicBool::new(false),
        permit: AtomicU64::new(u64::MAX),
        issued: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        waiting: AtomicBool::new(false),
        gate: Mutex::new(()),
        wake: Condvar::new(),
        stamps: (0..STAMPS).map(|_| AtomicU64::new(0)).collect(),
        mismatched: AtomicU64::new(0),
        out_of_order: AtomicU64::new(0),
        eos: AtomicBool::new(false),
        samples: Mutex::new(Vec::with_capacity(1 << 20)),
        probes: Probes::new("probe", 1 << 14, RECEIVERS),
        idle: Probes::new("idle-probe", 1 << 12, RECEIVERS),
    });
    let s = timed_setups(
        setup_s,
        || {
            let s = set_up(&sh);
            start_ms.push(s.start_ms);
            s
        },
        Setup::tear_down,
    );
    let threads = s.producer.report().total_threads() + s.consumer.report().total_threads();
    s.consumer.start_flow().expect("start the consumer");
    s.producer.start_flow().expect("start the producer");
    let load = load(&sh, &s, seconds, traced);

    // End of stream: the source ends, `Fin` crosses the link, and the
    // consumer's sink sees end of stream.
    sh.stop.store(true, Ordering::SeqCst);
    sh.open_gate();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !load.stalled && !sh.eos.load(Ordering::Acquire) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let last_seq = load.marks[load.marks.len() - 1].tally.items;
    let timed = load.first_timed_seq..last_seq;
    let lat_us = sh
        .samples
        .lock()
        .expect("sample store poisoned")
        .iter()
        .filter(|(seq, _)| timed.contains(seq))
        .map(|&(_, ns)| ns as f64 / 1e3)
        .collect();
    let (delivered, missed) = sh.probes.results(load.flow_probes.clone());
    let seg = Segment {
        lat_us,
        ctl_us: sh.probes.per_receiver_us(load.flow_probes.clone()),
        send_us: delivered.iter().map(|d| d.send_us).collect(),
        wait_us: delivered.iter().map(|d| d.wait_us).collect(),
        missed,
        issued: sh.issued.load(Ordering::SeqCst),
        completed: sh.completed.load(Ordering::SeqCst),
        mismatched: sh.mismatched.load(Ordering::Relaxed),
        out_of_order: sh.out_of_order.load(Ordering::Relaxed),
        decoder: *s.decoder.lock(),
        sent: s.link.stats(),
        received: s.server_end.stats(),
        threads,
        spans: if traced { trace::take() } else { Vec::new() },
        load,
    };
    s.tear_down();
    seg
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut bound = Vec::new();
    let mut setup_s = Vec::new();
    let mut start_ms = Vec::new();
    let segments: Vec<Segment> = (0..SEGMENTS)
        .map(|i| {
            let traced = cfg.trace && i >= SEGMENTS / 2;
            let seconds = cfg.seconds / SEGMENTS as f64;
            // One CPU per segment, the CPUs in turn (see `bind_segment`).
            bound.push(bind_segment(i));
            segment(cfg.seed, seconds, traced, &mut setup_s, &mut start_ms)
        })
        .collect();
    let (untraced, traced) = segments.split_at(if cfg.trace { SEGMENTS / 2 } else { SEGMENTS });

    let sum = |f: fn(&Segment) -> u64| segments.iter().map(f).sum::<u64>();
    let (issued, completed) = (sum(|s| s.issued), sum(|s| s.completed));
    let (mismatched, out_of_order) = (sum(|s| s.mismatched), sum(|s| s.out_of_order));
    let (decoded, undecodable) = (sum(|s| s.decoder.decoded), sum(|s| s.decoder.undecodable));
    let (sent, delivered, refused) = (
        sum(|s| s.sent.sent),
        sum(|s| s.received.delivered),
        sum(|s| s.received.refused),
    );
    let (flow_probes, missed) = (sum(|s| s.load.flow_probes.len() as u64), sum(|s| s.missed));
    let stalled = segments.iter().any(|s| s.load.stalled);
    let undelivered = sum(|s| {
        if s.load.stalled {
            s.issued - s.completed
        } else {
            0
        }
    });
    let drained = segments.iter().filter(|s| s.load.idle.drained).count();
    let idle_sent = sum(|s| s.load.idle.sent);
    let idle_in_time = sum(|s| s.load.idle.in_time.len() as u64);

    let items_per_s = across(untraced, |s| window_medians(&s.tallies()).0);
    let cpu_us_per_item = across(untraced, |s| window_medians(&s.tallies()).1);
    let mut lat: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.lat_us.iter().copied())
        .collect();
    let mut ctl: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.ctl_us.iter().copied())
        .collect();

    eprintln!("{}", binding_note("video_tcp", &bound));
    eprintln!(
        "{}",
        per_segment("items/s", &segments, |s| window_medians(&s.tallies()).0)
    );
    eprintln!(
        "{}",
        per_segment("control p50 (us)", &segments, |s| median_of(&s.ctl_us))
    );
    let mut out = Outcome {
        correct: mismatched == 0
            && out_of_order == 0
            && undecodable == 0
            && sent == delivered
            && refused == 0
            && missed == 0
            && (stalled || completed == issued),
        attempted: issued + flow_probes + IDLE_PROBES * SEGMENTS as u64,
        failed: missed + undelivered + (IDLE_PROBES * SEGMENTS as u64 - idle_in_time),
        e2e: EndToEnd {
            setup_s: median(&mut setup_s),
            items_per_s,
            latency_p50_us: across(untraced, |s| median_of(&s.lat_us)),
            cpu_us_per_item,
            control_latency_p50_us: across(untraced, |s| median_of(&s.ctl_us)),
        },
        ..Outcome::default()
    };
    eprintln!(
        "video_tcp: {SEGMENTS} segments, issued {issued}, checked {completed}, \
         mismatched {mismatched}, out of order {out_of_order}, decoded {decoded} \
         undecodable {undecodable}, link sent {sent} delivered {delivered} refused {refused}, \
         probes {flow_probes} (missed {missed}), plan threads {}, stalled {stalled}",
        segments[0].threads,
    );
    eprintln!("{}", tail_note("frame latency", &mut lat));
    eprintln!("{}", tail_note("control latency", &mut ctl));
    eprintln!(
        "idle check: {drained} of {SEGMENTS} segments drained; {idle_in_time} of {idle_sent} \
         idle probes handled within {IDLE_DEADLINE:?}"
    );

    if cfg.trace {
        per_layer(&mut out, traced, items_per_s, &mut start_ms);
    }
    out
}

fn per_layer(out: &mut Outcome, traced: &[Segment], untraced_rate: f64, start_ms: &mut [f64]) {
    let delta = |f: &dyn Fn(&Mark) -> u64| -> f64 {
        traced
            .iter()
            .map(|s| f(&s.load.marks[s.load.marks.len() - 1]) - f(&s.load.marks[0]))
            .sum::<u64>() as f64
    };
    let frames = delta(&|m| m.tally.items).max(1.0);
    let traced_rate = across(traced, |s| window_medians(&s.tallies()).0);
    let collect = |f: fn(&Segment) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    out.layer(
        "mbthread.switches_per_item",
        delta(&|m| m.kstats.context_switches) / frames,
    );
    out.layer(
        "mbthread.messages_per_item",
        delta(&|m| m.kstats.messages_sent) / frames,
    );
    out.layer("infopipes.start_ms", median(start_ms));
    out.layer("infopipes.threads", traced[0].threads as f64);
    out.layer(
        "infopipes.event_send_us",
        median(&mut collect(|s| &s.send_us)),
    );
    out.layer(
        "infopipes.event_wait_us",
        median(&mut collect(|s| &s.wait_us)),
    );
    out.layer(
        "infopipes.inbox_fill",
        crate::common::mean(&collect(|s| &s.load.fill)),
    );
    out.layer(
        "infopipes.idle_event_us",
        median(&mut collect(|s| &s.load.idle.in_time)),
    );
    out.layer("infopipes.copies_per_item", delta(&|m| m.copies) / frames);
    out.layer(
        "netpipe.wire_writes_per_frame",
        delta(&|m| m.link.wire_writes) / frames,
    );
    let (hits, misses) = (delta(&|m| m.pools.hits), delta(&|m| m.pools.misses));
    out.layer("netpipe.pool_miss_rate", misses / (hits + misses).max(1.0));
    out.layer("media.packets_per_frame", delta(&|m| m.link.sent) / frames);
    out.layer("process.allocs_per_item", delta(&|m| m.allocs) / frames);
    let mut os: Vec<f64> = traced.iter().map(|s| s.load.threads).collect();
    out.layer("process.os_threads", median(&mut os));
    out.layer(
        "trace.overhead_pct",
        (untraced_rate / traced_rate - 1.0) * 100.0,
    );

    // Item ids restart in every segment: attribute spans within a segment.
    let layers = [
        ("netpipe.marshal_us", "netpipe.marshal"),
        ("netpipe.unmarshal_us", "netpipe.unmarshal"),
        ("netpipe.send_us", "netpipe.send"),
        ("media.fragment_us", "media.fragment"),
        ("media.defrag_us", "media.defrag"),
        ("media.decode_us", "media.decode"),
    ];
    let mut pooled: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let mut link = Vec::new();
    for seg in traced {
        let spans = &seg.spans;
        let selfs = trace::self_times(spans);
        for (v, (_, span)) in pooled.iter_mut().zip(layers) {
            v.extend(trace::self_us_per_item(spans, &selfs, span));
        }
        let sent_at: HashMap<u64, u64> = spans
            .iter()
            .filter(|s| s.name == "netpipe.send")
            .map(|s| (s.item, s.end))
            .collect();
        link.extend(
            spans
                .iter()
                .filter(|s| s.name == "netpipe.unmarshal")
                .filter_map(|s| {
                    let sent = sent_at.get(&s.item)?;
                    Some(s.start.saturating_sub(*sent) as f64 / 1e3)
                }),
        );
    }
    for (mut v, (metric, _)) in pooled.into_iter().zip(layers) {
        out.layer(metric, median(&mut v));
    }
    out.layer("netpipe.link_us", median(&mut link));
    let spans: Vec<&[trace::Span]> = traced.iter().map(|s| &s.spans[..]).collect();
    trace::write_out(&spans, "video_tcp");
}
