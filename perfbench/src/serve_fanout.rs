//! `serve_fanout`: the serving tier and no kernel at all.
//!
//! [`SESSIONS`] in-process clients are admitted through an `AcceptLoop`
//! into a `SessionRegistry`. The load thread broadcasts pre-sealed 4 KiB
//! payloads and sweeps, staying [`AHEAD`] frames ahead of the slowest
//! session so that no queue overflows and nothing is shed. One reader
//! thread drains every client link and checks each frame. Control probes
//! go through `broadcast_event` and count when read on each session.

use crate::common::{
    across, median, median_of, now_ns, os_threads, per_segment, tail_note, timed_setups,
    window_medians, windows_in, EndToEnd, Outcome, Rng, RunCfg, Tally, Watchdog, SEGMENTS, WINDOW,
};
use crate::probes::Probes;
use crate::trace;
use infopipes::{payload_copy_count, PayloadBytes};
use netpipe::{
    AcceptLoop, Acceptor, Frame, InProcLink, InProcTransport, Link, RecvOutcome, RegistryStats,
    ServeConfig, SessionRegistry, Transport,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const SESSIONS: usize = 64;
pub const FRAME_BYTES: usize = 4096;
/// Distinct pre-sealed payloads, cycled in order.
pub const PAYLOADS: usize = 256;
/// How far the load may run ahead of the slowest session.
pub const AHEAD: u64 = 32;
pub const QUEUE: usize = 256;
const SWEEP_EVERY: u64 = 8;
const WARMUP_BROADCASTS: u64 = 4096;
const PROBE_EVERY: Duration = Duration::from_millis(5);
/// Broadcast send times kept for the latency of each delivery.
const RING: usize = 1024;
/// One delivery in this many per session gives a latency sample.
const LAT_EVERY: u64 = 32;
/// Traced runs record spans for one call in this many.
const TRACE_EVERY: u64 = 8;
const RECV_TRACE_EVERY: u64 = 64;

struct Shared {
    payloads: Vec<PayloadBytes>,
    sent_at: Vec<AtomicU64>,
    /// Fewest frames any session has read.
    min_read: AtomicU64,
    /// Data frames read, summed over sessions.
    delivered: AtomicU64,
    mismatched: AtomicU64,
    /// `(read time, latency ns)` samples.
    samples: Mutex<Vec<(u64, u64)>>,
    probes: Probes,
    done: AtomicBool,
}

struct Setup {
    registry: SessionRegistry<InProcLink>,
    accept: AcceptLoop,
    clients: Vec<InProcLink>,
    admit_ms: f64,
}

fn set_up() -> Setup {
    let transport = InProcTransport::new();
    let acceptor = transport.listen("fanout").expect("listen");
    let addr = acceptor.local_addr();
    let registry = SessionRegistry::new(ServeConfig {
        queue_capacity: QUEUE,
        ..ServeConfig::default()
    });
    let accept = AcceptLoop::spawn(acceptor, registry.clone());
    let t = Instant::now();
    let clients: Vec<InProcLink> = (0..SESSIONS)
        .map(|_| transport.connect(&addr).expect("connect"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while registry.stats().active < SESSIONS {
        assert!(Instant::now() < deadline, "sessions were never admitted");
        std::thread::yield_now();
    }
    let admit_ms = t.elapsed().as_secs_f64() * 1e3;
    Setup {
        registry,
        accept,
        clients,
        admit_ms,
    }
}

/// What the reader saw.
struct Read {
    counts: Vec<u64>,
    fins: usize,
}

/// The reader thread: drains every client link in turn, checking each
/// frame against the payload the load sent at that position.
fn reader(sh: &Shared, links: &[InProcLink]) -> Read {
    let mut counts = vec![0u64; links.len()];
    let mut open = vec![true; links.len()];
    let mut fins = 0;
    let mut samples = Vec::with_capacity(1 << 20);
    let mut dog = Watchdog::new(0);
    let mut progress = 0u64;
    while open.iter().any(|&o| o) {
        // `moved` counts every frame read (the watchdog's progress);
        // `data` only the data frames, which are the deliveries.
        let mut moved = 0u64;
        let mut data = 0u64;
        for (s, link) in links.iter().enumerate() {
            if !open[s] {
                continue;
            }
            loop {
                let traced = trace::enabled() && counts[s].is_multiple_of(RECV_TRACE_EVERY);
                let t0 = if traced { now_ns() } else { 0 };
                match link.recv(Duration::ZERO) {
                    RecvOutcome::Frame(Frame::Data(p)) => {
                        let c = counts[s];
                        if traced {
                            trace::record("serve.recv", ((s as u64) << 40) | c, t0, now_ns());
                        }
                        let want = &sh.payloads[c as usize % PAYLOADS];
                        let same = p.shares_allocation_with(want) && p.len() == want.len();
                        if !same && p.as_slice() != want.as_slice() {
                            sh.mismatched.fetch_add(1, Ordering::Relaxed);
                        }
                        if c.is_multiple_of(LAT_EVERY) {
                            let now = now_ns();
                            let sent = sh.sent_at[c as usize % RING].load(Ordering::Acquire);
                            samples.push((now, now.saturating_sub(sent)));
                        }
                        counts[s] = c + 1;
                        moved += 1;
                        data += 1;
                    }
                    RecvOutcome::Frame(Frame::Event(ev)) => {
                        sh.probes.note(&ev.into(), s);
                        moved += 1;
                    }
                    RecvOutcome::Frame(_) => moved += 1,
                    RecvOutcome::Fin | RecvOutcome::Closed => {
                        open[s] = false;
                        fins += 1;
                        break;
                    }
                    RecvOutcome::TimedOut => break,
                }
            }
        }
        if moved > 0 {
            progress += moved;
            sh.delivered.fetch_add(data, Ordering::Relaxed);
            let min = counts.iter().copied().min().unwrap_or(0);
            sh.min_read.store(min, Ordering::Release);
        } else {
            if dog.stalled(progress) && sh.done.load(Ordering::Acquire) {
                eprintln!(
                    "STALL: the reader saw nothing for {:?}",
                    crate::common::STALL
                );
                break;
            }
            std::thread::yield_now();
        }
    }
    sh.samples
        .lock()
        .expect("sample store poisoned")
        .extend(samples);
    Read { counts, fins }
}

/// What the load thread saw.
struct Load {
    broadcasts: u64,
    tallies: Vec<Tally>,
    probes: std::ops::Range<usize>,
    copies: u64,
    allocs: u64,
    threads: f64,
    stalled: bool,
}

fn load(sh: &Shared, registry: &SessionRegistry<InProcLink>, seconds: f64, traced: bool) -> Load {
    let mut i = 0u64;
    let mut sweeps = 0u64;
    let windows = windows_in(seconds);
    let mut tallies = Vec::new();
    let mut t0 = None;
    let mut first_probe = 0;
    let mut next_probe = Instant::now();
    let mut copies = 0;
    let mut allocs = 0;
    let mut dog = Watchdog::new(0);
    let mut stalled = false;
    loop {
        // Stay a fixed window ahead of the slowest session.
        while i - sh.min_read.load(Ordering::Acquire) >= AHEAD {
            if dog.stalled(sh.delivered.load(Ordering::Relaxed)) {
                stalled = true;
                break;
            }
            std::thread::yield_now();
        }
        if stalled {
            break;
        }
        let payload = &sh.payloads[i as usize % PAYLOADS];
        let traced_call = trace::enabled() && i.is_multiple_of(TRACE_EVERY);
        let t = now_ns();
        sh.sent_at[i as usize % RING].store(t, Ordering::Release);
        let reached = registry.broadcast(payload);
        if traced_call {
            trace::record("serve.broadcast", i, t, now_ns());
        }
        debug_assert_eq!(reached, SESSIONS);
        i += 1;
        if i.is_multiple_of(SWEEP_EVERY) {
            let traced_call = trace::enabled() && sweeps.is_multiple_of(TRACE_EVERY);
            let t = if traced_call { now_ns() } else { 0 };
            registry.sweep();
            if traced_call {
                trace::record("serve.sweep", sweeps, t, now_ns());
            }
            sweeps += 1;
        }
        if !i.is_multiple_of(64) {
            continue;
        }
        let now = Instant::now();
        let Some(start) = t0 else {
            if i >= WARMUP_BROADCASTS {
                t0 = Some(now);
                first_probe = sh.probes.sent();
                next_probe = now + PROBE_EVERY;
                copies = payload_copy_count();
                allocs = crate::common::allocs();
                trace::set_enabled(traced);
                tallies.push(Tally::now(sh.delivered.load(Ordering::Relaxed)));
            }
            continue;
        };
        if now >= next_probe {
            next_probe += PROBE_EVERY;
            let _ = sh.probes.send(|ev| registry.broadcast_event(&ev));
        }
        if now >= start + WINDOW * tallies.len() as u32 {
            tallies.push(Tally::now(sh.delivered.load(Ordering::Relaxed)));
            if tallies.len() > windows {
                break;
            }
        }
    }
    trace::set_enabled(false);
    Load {
        broadcasts: i,
        tallies,
        probes: first_probe..sh.probes.sent(),
        copies: payload_copy_count() - copies,
        allocs: crate::common::allocs() - allocs,
        threads: os_threads(),
        stalled,
    }
}

/// What one segment measured.
struct Segment {
    load: Load,
    lat_us: Vec<f64>,
    ctl_us: Vec<f64>,
    short: u64,
    extra: bool,
    mismatched: u64,
    missed: u64,
    ledger: RegistryStats,
    fins: usize,
    admit_ms: f64,
    spans: Vec<trace::Span>,
}

/// One segment: fresh set-ups (timed), then `seconds` of broadcasting,
/// then every session drained to `Fin`.
fn segment(
    payloads: &[PayloadBytes],
    seconds: f64,
    traced: bool,
    setup_s: &mut Vec<f64>,
) -> Segment {
    let sh = Shared {
        payloads: payloads.to_vec(),
        sent_at: (0..RING).map(|_| AtomicU64::new(0)).collect(),
        min_read: AtomicU64::new(0),
        delivered: AtomicU64::new(0),
        mismatched: AtomicU64::new(0),
        samples: Mutex::new(Vec::new()),
        probes: Probes::new("probe", 1 << 14, SESSIONS),
        done: AtomicBool::new(false),
    };
    let s = timed_setups(setup_s, set_up, |s| {
        s.accept.shutdown();
    });

    let (load, read, ledger) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(&sh, &s.clients));
        let load = load(&sh, &s.registry, seconds, traced);
        // Let every session read every frame, then drain to `Fin`.
        let mut dog = Watchdog::new(sh.delivered.load(Ordering::Relaxed));
        while sh.min_read.load(Ordering::Acquire) < load.broadcasts {
            s.registry.sweep();
            if dog.stalled(sh.delivered.load(Ordering::Relaxed)) {
                eprintln!("STALL: sessions stopped reading; {:?}", s.registry.stats());
                break;
            }
            std::thread::yield_now();
        }
        let ledger = s.registry.stats();
        s.registry.drain_all();
        sh.done.store(true, Ordering::Release);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !s.registry.is_empty() && Instant::now() < deadline {
            s.registry.sweep();
            s.registry.reap();
            std::thread::yield_now();
        }
        (load, reader.join().expect("reader thread"), ledger)
    });
    s.accept.shutdown();

    let window = load.tallies[0].at..load.tallies[load.tallies.len() - 1].at;
    let lat_us = sh
        .samples
        .lock()
        .expect("sample store poisoned")
        .iter()
        .filter(|(at, _)| window.contains(at))
        .map(|&(_, ns)| ns as f64 / 1e3)
        .collect();
    let (_, missed) = sh.probes.results(load.probes.clone());
    Segment {
        lat_us,
        ctl_us: sh.probes.per_receiver_us(load.probes.clone()),
        short: read
            .counts
            .iter()
            .map(|&c| load.broadcasts.saturating_sub(c))
            .sum(),
        extra: read.counts.iter().any(|&c| c > load.broadcasts),
        mismatched: sh.mismatched.load(Ordering::Relaxed),
        missed,
        ledger,
        fins: read.fins,
        admit_ms: s.admit_ms,
        spans: if traced { trace::take() } else { Vec::new() },
        load,
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut rng = Rng::new(cfg.seed);
    let payloads: Vec<PayloadBytes> = (0..PAYLOADS)
        .map(|_| PayloadBytes::from_vec(rng.bytes(FRAME_BYTES)))
        .collect();
    let mut setup_s = Vec::new();
    let segments: Vec<Segment> = (0..SEGMENTS)
        .map(|i| {
            let traced = cfg.trace && i >= SEGMENTS / 2;
            segment(
                &payloads,
                cfg.seconds / SEGMENTS as f64,
                traced,
                &mut setup_s,
            )
        })
        .collect();
    let (untraced, traced) = segments.split_at(if cfg.trace { SEGMENTS / 2 } else { SEGMENTS });

    let sum = |f: fn(&Segment) -> u64| segments.iter().map(f).sum::<u64>();
    let broadcasts = sum(|s| s.load.broadcasts);
    let (short, mismatched, missed) = (sum(|s| s.short), sum(|s| s.mismatched), sum(|s| s.missed));
    let probes = sum(|s| s.load.probes.len() as u64);
    let (enqueued, sent_total, shed) = (
        sum(|s| s.ledger.enqueued_total),
        sum(|s| s.ledger.sent_total),
        sum(|s| s.ledger.shed_total),
    );
    let ledgers_hold = segments
        .iter()
        .all(|s| s.ledger.enqueued_total == s.ledger.sent_total + s.ledger.shed_total);
    let fins_ok = segments.iter().all(|s| s.fins == SESSIONS);
    let stalled = segments.iter().any(|s| s.load.stalled);
    let items_per_s = across(untraced, |s| window_medians(&s.load.tallies).0);
    let cpu_us_per_item = across(untraced, |s| window_medians(&s.load.tallies).1);
    let mut lat: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.lat_us.iter().copied())
        .collect();
    let mut ctl: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.ctl_us.iter().copied())
        .collect();

    eprintln!(
        "{}",
        per_segment("items/s", &segments, |s| window_medians(&s.load.tallies).0)
    );
    eprintln!(
        "{}",
        per_segment("control p50 (us)", &segments, |s| median_of(&s.ctl_us))
    );
    let mut out = Outcome {
        correct: mismatched == 0
            && !segments.iter().any(|s| s.extra)
            && ledgers_hold
            && shed == 0
            && fins_ok
            && missed == 0,
        attempted: broadcasts * SESSIONS as u64 + probes,
        failed: short + missed,
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
        "serve_fanout: {SEGMENTS} segments of {SESSIONS} sessions, {broadcasts} broadcasts, \
         deliveries short {short}, mismatched {mismatched}, ledger enqueued {enqueued} = \
         sent {sent_total} + shed {shed}, all fins {fins_ok}, probes {probes} (missed {missed}), \
         stalled {stalled}"
    );
    eprintln!("{}", tail_note("delivery latency", &mut lat));
    eprintln!("{}", tail_note("control latency", &mut ctl));

    if cfg.trace {
        let traced_rate = across(traced, |s| window_medians(&s.load.tallies).0);
        let deliveries = traced
            .iter()
            .map(|s| s.load.tallies[s.load.tallies.len() - 1].items - s.load.tallies[0].items)
            .sum::<u64>()
            .max(1) as f64;
        let tsum = |f: fn(&Segment) -> u64| traced.iter().map(f).sum::<u64>() as f64;
        let mut admit: Vec<f64> = segments.iter().map(|s| s.admit_ms).collect();
        let mut os: Vec<f64> = traced.iter().map(|s| s.load.threads).collect();
        let mut ev: Vec<f64> = traced
            .iter()
            .flat_map(|s| s.ctl_us.iter().copied())
            .collect();
        out.layer("serve.admit_ms", median(&mut admit));
        out.layer("serve.event_us", median(&mut ev));
        out.layer(
            "infopipes.copies_per_item",
            tsum(|s| s.load.copies) / deliveries,
        );
        out.layer(
            "process.allocs_per_item",
            tsum(|s| s.load.allocs) / deliveries,
        );
        out.layer("process.os_threads", median(&mut os));
        out.layer(
            "trace.overhead_pct",
            (items_per_s / traced_rate - 1.0) * 100.0,
        );
        let durs = |name: &str| -> f64 {
            let mut v: Vec<f64> = traced
                .iter()
                .flat_map(|s| s.spans.iter())
                .filter(|s| s.name == name)
                .map(|s| s.dur() as f64 / 1e3)
                .collect();
            median(&mut v)
        };
        out.layer("serve.broadcast_us", durs("serve.broadcast"));
        out.layer("serve.sweep_us", durs("serve.sweep"));
        out.layer("serve.recv_us", durs("serve.recv"));
        let spans: Vec<&[trace::Span]> = traced.iter().map(|s| &s.spans[..]).collect();
        trace::write_out(&spans, "serve_fanout");
    }
    out
}
