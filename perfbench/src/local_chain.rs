//! `local_chain`: the paper's own mechanism and nothing else.
//!
//! One real-clock kernel runs the Fig. 9 (e) chain
//!
//! ```text
//! source (producer) -> x0 (consumer) -> FreePump -> x1 (producer) -> sink (consumer)
//! ```
//!
//! for which the paper prescribes three threads: the pump section and a
//! coroutine each for x0 and x1, so every item costs two coroutine
//! GET/PUT round trips. Items are a sequence number and a timestamp. The
//! main thread waits for the end of the stream in
//! `RunningPipeline::wait_quiescent`; a second load thread broadcasts
//! control probes at a fixed interval and keeps the phase clock.

use crate::common::{
    across, bind_segment, binding_note, median, median_of, now_ns, os_threads, per_segment,
    tail_note, timed_setups, window_medians, windows_in, EndToEnd, Outcome, RunCfg, Tally,
    Watchdog, SEGMENTS, WINDOW,
};
use crate::probes::Probes;
use crate::trace;
use infopipes::{
    Consumer, ControlEvent, EventCtx, FreePump, Item, Pipeline, Producer, RunningPipeline, Stage,
    StageCtx,
};
use mbthread::{Kernel, KernelConfig, KernelStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The paper's thread count for Fig. 9 (e).
const PAPER_THREADS: usize = 3;
const WARMUP_ITEMS: u64 = 4000;
const PROBE_EVERY: Duration = Duration::from_millis(5);
/// Traced runs record spans for one item in this many.
const TRACE_EVERY: u64 = 4;
/// Probe receivers: source, x0, x1, sink.
const RECEIVERS: usize = 4;

struct Tick {
    seq: u64,
    stamp: u64,
}

fn tick(item: &Item) -> &Tick {
    item.payload_ref::<Tick>().expect("the chain carries ticks")
}

fn sampled(seq: u64) -> bool {
    trace::enabled() && seq.is_multiple_of(TRACE_EVERY)
}

struct Shared {
    stop: AtomicBool,
    made: AtomicU64,
    checked: AtomicU64,
    out_of_order: AtomicU64,
    /// `(check time, latency)` in ns for every checked item.
    samples: Mutex<Vec<(u64, u64)>>,
    probes: Probes,
}

struct Source {
    sh: Arc<Shared>,
    next: u64,
}

impl Stage for Source {
    fn name(&self) -> &str {
        "chain-source"
    }
    fn on_event(&mut self, _: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        self.sh.probes.note(event, 0);
    }
}

impl Producer for Source {
    fn pull(&mut self, _: &mut StageCtx<'_, '_>) -> Option<Item> {
        if self.sh.stop.load(Ordering::Relaxed) {
            return None;
        }
        let seq = self.next;
        self.next += 1;
        let stamp = now_ns();
        self.sh.made.fetch_add(1, Ordering::Relaxed);
        if sampled(seq) {
            trace::record("chain.source", seq, stamp, now_ns());
        }
        Some(Item::new(Tick { seq, stamp }))
    }
}

/// x0: consumer style, so the planner gives it a coroutine.
struct X0 {
    sh: Arc<Shared>,
}

impl Stage for X0 {
    fn name(&self) -> &str {
        "x0"
    }
    fn on_event(&mut self, _: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        self.sh.probes.note(event, 1);
    }
}

impl Consumer for X0 {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        let seq = tick(&item).seq;
        if !sampled(seq) {
            ctx.put(item);
            return;
        }
        let call = now_ns();
        ctx.put(item);
        trace::record("chain.put", seq, call, now_ns());
    }
}

/// x1: producer style, so the planner gives it a coroutine too.
struct X1 {
    sh: Arc<Shared>,
    /// The last sampled item and when `get` returned it.
    holding: Option<(u64, u64)>,
}

impl Stage for X1 {
    fn name(&self) -> &str {
        "x1"
    }
    fn on_event(&mut self, _: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        self.sh.probes.note(event, 2);
    }
}

impl Producer for X1 {
    fn pull(&mut self, ctx: &mut StageCtx<'_, '_>) -> Option<Item> {
        let call = trace::enabled().then(now_ns);
        if let (Some(call), Some((seq, got))) = (call, self.holding.take()) {
            // x1's own time on the previous item, the sink's push included.
            trace::record("chain.x1", seq, got, call);
        }
        let item = ctx.get()?;
        let seq = tick(&item).seq;
        if let Some(call) = call.filter(|_| sampled(seq)) {
            let got = now_ns();
            trace::record("chain.get", seq, call, got);
            self.holding = Some((seq, got));
        }
        Some(item)
    }
}

struct Sink {
    sh: Arc<Shared>,
    expected: u64,
}

impl Stage for Sink {
    fn name(&self) -> &str {
        "chain-sink"
    }
    fn on_event(&mut self, _: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        self.sh.probes.note(event, 3);
    }
}

impl Consumer for Sink {
    fn push(&mut self, _: &mut StageCtx<'_, '_>, item: Item) {
        let t = tick(&item);
        let now = now_ns();
        if t.seq != self.expected {
            self.sh.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        self.expected = t.seq + 1;
        self.sh
            .samples
            .lock()
            .expect("sample store poisoned")
            .push((now, now - t.stamp));
        self.sh.checked.fetch_add(1, Ordering::Relaxed);
    }
}

struct Setup {
    kernel: Kernel,
    running: RunningPipeline,
    start_ms: f64,
}

fn set_up(sh: &Arc<Shared>) -> Setup {
    let kernel = Kernel::new(KernelConfig::default());
    let pipeline = Pipeline::new(&kernel, "fig9e");
    let source = pipeline.add_producer(
        "source",
        Source {
            sh: Arc::clone(sh),
            next: 0,
        },
    );
    let x0 = pipeline.add_consumer("x0", X0 { sh: Arc::clone(sh) });
    let pump = pipeline.add_pump("pump", FreePump::new());
    let x1 = pipeline.add_producer(
        "x1",
        X1 {
            sh: Arc::clone(sh),
            holding: None,
        },
    );
    let sink = pipeline.add_consumer(
        "sink",
        Sink {
            sh: Arc::clone(sh),
            expected: 0,
        },
    );
    let _ = source >> x0 >> pump >> x1 >> sink;
    let t = Instant::now();
    let running = pipeline.start().expect("the Fig. 9 (e) chain plans");
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    Setup {
        kernel,
        running,
        start_ms,
    }
}

/// What the phase thread saw at one instant.
#[derive(Clone, Copy)]
struct Mark {
    tally: Tally,
    allocs: u64,
    kstats: KernelStats,
}

fn mark(sh: &Shared, kernel: &Kernel) -> Mark {
    Mark {
        tally: Tally::now(sh.checked.load(Ordering::Relaxed)),
        allocs: crate::common::allocs(),
        kstats: kernel.stats(),
    }
}

struct Phases {
    /// Marks every [`WINDOW`] across the timed phase.
    marks: Vec<Mark>,
    probes: std::ops::Range<usize>,
    threads: f64,
    stalled: bool,
}

/// The second load thread: waits out the warm-up, then sends probes at a
/// fixed interval for `seconds` and ends the stream.
fn phase_thread(sh: &Shared, running: &RunningPipeline, seconds: f64, traced: bool) -> Phases {
    let kernel = running.kernel();
    let mut dog = Watchdog::new(0);
    let mut stalled = false;
    while sh.checked.load(Ordering::Relaxed) < WARMUP_ITEMS {
        if dog.stalled(sh.checked.load(Ordering::Relaxed)) {
            stalled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let windows = windows_in(seconds);
    trace::set_enabled(traced);
    let mut marks = vec![mark(sh, kernel)];
    let first_probe = sh.probes.sent();
    let t0 = Instant::now();
    let mut next_probe = t0 + PROBE_EVERY;
    while !stalled && marks.len() <= windows {
        let now = Instant::now();
        if now >= t0 + WINDOW * marks.len() as u32 {
            marks.push(mark(sh, kernel));
            continue;
        }
        if now >= next_probe {
            next_probe += PROBE_EVERY;
            let _ = sh.probes.send(|ev| {
                running.send_event(ev).expect("the chain is running");
            });
        }
        if dog.stalled(sh.checked.load(Ordering::Relaxed)) {
            stalled = true;
        }
        let next_window = t0 + WINDOW * marks.len() as u32;
        std::thread::sleep(next_probe.min(next_window).saturating_duration_since(now));
    }
    trace::set_enabled(false);
    // Read once, after the timed phase: the file read would otherwise
    // take the CPU from the chain while probes are in flight.
    let threads = os_threads();
    let probes = first_probe..sh.probes.sent();
    sh.stop.store(true, Ordering::Relaxed);
    if stalled {
        eprintln!("STALL: no item checked for {:?}", crate::common::STALL);
        eprintln!("{}", kernel.thread_dump());
    }
    Phases {
        marks,
        probes,
        threads,
        stalled,
    }
}

/// What one segment measured.
#[derive(Default)]
struct Segment {
    tallies: Vec<Tally>,
    lat_us: Vec<f64>,
    ctl_us: Vec<f64>,
    send_us: Vec<f64>,
    wait_us: Vec<f64>,
    made: u64,
    checked: u64,
    out_of_order: u64,
    probes: u64,
    missed: u64,
    threads: usize,
    os_threads: f64,
    switches: u64,
    messages: u64,
    allocs: u64,
    stalled: bool,
    spans: Vec<trace::Span>,
}

/// One segment: fresh set-ups (timed), then one chain run for `seconds`.
fn segment(seconds: f64, traced: bool, setup_s: &mut Vec<f64>, start_ms: &mut Vec<f64>) -> Segment {
    let sh = Arc::new(Shared {
        stop: AtomicBool::new(false),
        made: AtomicU64::new(0),
        checked: AtomicU64::new(0),
        out_of_order: AtomicU64::new(0),
        samples: Mutex::new(Vec::with_capacity(1 << 20)),
        probes: Probes::new("probe", 1 << 14, RECEIVERS),
    });
    let Setup {
        kernel, running, ..
    } = timed_setups(
        setup_s,
        || {
            let s = set_up(&sh);
            start_ms.push(s.start_ms);
            s
        },
        |s| {
            drop(s.running);
            s.kernel.shutdown();
        },
    );
    let threads = running.report().total_threads();
    running.start_flow().expect("start");
    let phases = std::thread::scope(|scope| {
        let phase = scope.spawn(|| phase_thread(&sh, &running, seconds, traced));
        running.wait_quiescent();
        phase.join().expect("phase thread")
    });
    // A stalled chain may leave the kernel idle with items in flight.
    let made = sh.made.load(Ordering::Relaxed);
    let checked = sh.checked.load(Ordering::Relaxed);
    drop(running);
    kernel.shutdown();

    let marks = &phases.marks;
    let (start, end) = (marks[0], marks[marks.len() - 1]);
    let window = start.tally.at..end.tally.at;
    let lat_us = sh
        .samples
        .lock()
        .expect("sample store poisoned")
        .iter()
        .filter(|(at, _)| window.contains(at))
        .map(|&(_, l)| l as f64 / 1e3)
        .collect();
    let (delivered, missed) = sh.probes.results(phases.probes.clone());
    let k = end.kstats.delta_since(&start.kstats);
    Segment {
        tallies: marks.iter().map(|m| m.tally).collect(),
        lat_us,
        ctl_us: sh.probes.per_receiver_us(phases.probes.clone()),
        send_us: delivered.iter().map(|d| d.send_us).collect(),
        wait_us: delivered.iter().map(|d| d.wait_us).collect(),
        made,
        checked,
        out_of_order: sh.out_of_order.load(Ordering::Relaxed),
        probes: phases.probes.len() as u64,
        missed,
        threads,
        os_threads: phases.threads,
        switches: k.context_switches,
        messages: k.messages_sent,
        allocs: end.allocs - start.allocs,
        stalled: phases.stalled,
        spans: if traced { trace::take() } else { Vec::new() },
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut bound = Vec::new();
    let mut setup_s = Vec::new();
    let mut start_ms = Vec::new();
    let segments: Vec<Segment> = (0..SEGMENTS)
        .map(|i| {
            let traced = cfg.trace && i >= SEGMENTS / 2;
            // One CPU per segment, the CPUs in turn (see `bind_segment`).
            bound.push(bind_segment(i));
            segment(
                cfg.seconds / SEGMENTS as f64,
                traced,
                &mut setup_s,
                &mut start_ms,
            )
        })
        .collect();
    let (untraced, traced) = segments.split_at(if cfg.trace { SEGMENTS / 2 } else { SEGMENTS });

    let sum = |f: fn(&Segment) -> u64| segments.iter().map(f).sum::<u64>();
    let (made, checked, out_of_order) =
        (sum(|s| s.made), sum(|s| s.checked), sum(|s| s.out_of_order));
    let (probes, missed) = (sum(|s| s.probes), sum(|s| s.missed));
    let threads_ok = segments.iter().all(|s| s.threads == PAPER_THREADS);
    let stalled = segments.iter().any(|s| s.stalled);
    let items_per_s = across(untraced, |s| window_medians(&s.tallies).0);
    let cpu_us_per_item = across(untraced, |s| window_medians(&s.tallies).1);
    let mut lat: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.lat_us.iter().copied())
        .collect();
    let mut ctl: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.ctl_us.iter().copied())
        .collect();

    eprintln!("{}", binding_note("local_chain", &bound));
    eprintln!(
        "{}",
        per_segment("items/s", &segments, |s| window_medians(&s.tallies).0)
    );
    eprintln!(
        "{}",
        per_segment("control p50 (us)", &segments, |s| median_of(&s.ctl_us))
    );
    let mut out = Outcome {
        correct: out_of_order == 0 && threads_ok && missed == 0 && made == checked,
        attempted: made + probes,
        failed: (made - checked) + missed,
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
        "local_chain: {SEGMENTS} segments, plan threads {} (paper {PAPER_THREADS}), made {made}, \
         checked {checked}, out of order {out_of_order}, probes {probes} (missed {missed}), \
         stalled {stalled}",
        segments[0].threads,
    );
    eprintln!("{}", tail_note("item latency", &mut lat));
    eprintln!("{}", tail_note("control latency", &mut ctl));

    if cfg.trace {
        let traced_rate = across(traced, |s| window_medians(&s.tallies).0);
        let items = traced
            .iter()
            .map(|s| s.tallies[s.tallies.len() - 1].items - s.tallies[0].items)
            .sum::<u64>()
            .max(1) as f64;
        let tsum = |f: fn(&Segment) -> u64| traced.iter().map(f).sum::<u64>() as f64;
        let mut os = traced.iter().map(|s| s.os_threads).collect::<Vec<_>>();
        let mut send: Vec<f64> = traced
            .iter()
            .flat_map(|s| s.send_us.iter().copied())
            .collect();
        let mut wait: Vec<f64> = traced
            .iter()
            .flat_map(|s| s.wait_us.iter().copied())
            .collect();
        out.layer("mbthread.switches_per_item", tsum(|s| s.switches) / items);
        out.layer("mbthread.messages_per_item", tsum(|s| s.messages) / items);
        out.layer("infopipes.start_ms", median(&mut start_ms));
        out.layer("infopipes.threads", segments[0].threads as f64);
        out.layer("infopipes.event_send_us", median(&mut send));
        out.layer("infopipes.event_wait_us", median(&mut wait));
        out.layer("infopipes.copies_per_item", 0.0);
        out.layer("process.allocs_per_item", tsum(|s| s.allocs) / items);
        out.layer("process.os_threads", median(&mut os));
        out.layer(
            "trace.overhead_pct",
            (items_per_s / traced_rate - 1.0) * 100.0,
        );

        // Item ids restart in every segment: pair spans within a segment.
        let (mut handoff, mut put, mut get) = (Vec::new(), Vec::new(), Vec::new());
        for s in traced {
            let (h, p, g) = glue_times(&s.spans);
            handoff.extend(h);
            put.extend(p);
            get.extend(g);
        }
        out.layer("mbthread.handoff_us", median(&mut handoff));
        out.layer("infopipes.put_us", median(&mut put));
        out.layer("infopipes.get_us", median(&mut get));
        let spans: Vec<&[trace::Span]> = traced.iter().map(|s| &s.spans[..]).collect();
        trace::write_out(&spans, "local_chain");
    }
    out
}

/// Per sampled item: the hand-off from x0's `put` to x1's `get`
/// returning it, and the self time of `put` and `get` — each call minus
/// the partner's own work on the item.
fn glue_times(spans: &[trace::Span]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut by: HashMap<(&str, u64), (u64, u64)> = HashMap::new();
    for s in spans {
        by.insert((s.name, s.item), (s.start, s.end));
    }
    let dur = |name: &'static str, seq: u64| by.get(&(name, seq)).map(|(a, b)| b - a);
    let (mut handoff, mut put, mut get) = (Vec::new(), Vec::new(), Vec::new());
    for (&(name, seq), &(put_start, put_end)) in &by {
        if name != "chain.put" {
            continue;
        }
        if let (Some(&(_, got)), Some(x1)) = (by.get(&("chain.get", seq)), dur("chain.x1", seq)) {
            handoff.push(got.saturating_sub(put_start) as f64 / 1e3);
            put.push((put_end - put_start).saturating_sub(x1) as f64 / 1e3);
        }
        if let (Some(g), Some(src)) = (dur("chain.get", seq), dur("chain.source", seq)) {
            get.push(g.saturating_sub(src) as f64 / 1e3);
        }
    }
    (handoff, put, get)
}
