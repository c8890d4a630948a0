//! Shared pieces of the benchmark: arguments, clocks, the counting
//! allocator, statistics and the result line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A run is cut into this many segments, each on a freshly set-up
/// workload (new kernels, threads, connections or sessions), so one
/// placement of threads on cores does not decide a whole run.
pub const SEGMENTS: usize = 40;

/// Set-ups per segment; all are timed for `setup_s`, the last one runs.
pub const SETUPS_PER_SEGMENT: usize = 3;

/// Sets up [`SETUPS_PER_SEGMENT`] times, timing each into `times`; tears
/// down all but the last, which it returns.
pub fn timed_setups<S>(
    times: &mut Vec<f64>,
    mut set_up: impl FnMut() -> S,
    mut tear_down: impl FnMut(S),
) -> S {
    let mut kept = None;
    for i in 0..SETUPS_PER_SEGMENT {
        let t = Instant::now();
        let s = set_up();
        times.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS_PER_SEGMENT {
            tear_down(s);
        } else {
            kept = Some(s);
        }
    }
    kept.expect("at least one set-up")
}

/// Deliveries that stop for this long end the run (stall watchdog).
pub const STALL: Duration = Duration::from_secs(3);

/// One run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunCfg {
    pub fn from_args() -> Result<RunCfg, String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => {
                    seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other}")),
                    });
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(RunCfg {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: the benchmark's own input generator, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Wall-clock nanoseconds since the process's first call.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (user + system, all threads) in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the C layout, and the
    // clock id is a constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t` of 1024 CPUs.
type CpuMask = [u64; 16];

/// The CPUs the process may run on, as its affinity mask was at the
/// first call.
fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a writable cpu_set_t of `size_of_val(&mask)`
        // bytes; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
            .collect()
    })
}

/// Binds the calling thread, and every thread it starts from now on, to
/// one CPU: segment `i` gets the `i`-th of the process's CPUs, in turn.
/// Returns that CPU, or `None` if the kernel refused.
///
/// Workloads whose threads hand work to each other, one running at a time,
/// run this way. Spread over a 2-core machine, each handoff costs whatever
/// waking a thread on the other core costs, and that varies with where the
/// scheduler put the threads. Bound to one CPU, a segment's throughput is
/// the inverse of the CPU its work takes. Taking the CPUs in turn gives a
/// run equal shares of each, since on a shared host each CPU's speed
/// changes on its own, by up to 2x for seconds at a time.
pub fn bind_segment(i: usize) -> Option<usize> {
    let cpus = allowed_cpus();
    let cpu = *cpus.get(i % cpus.len().max(1))?;
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid cpu_set_t of `size_of_val(&mask)` bytes;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// One diagnostic line saying where the segments ran.
pub fn binding_note(workload: &str, bound: &[Option<usize>]) -> String {
    let cpus: Vec<String> = bound
        .iter()
        .map(|c| c.map_or("-".to_string(), |c| c.to_string()))
        .collect();
    format!(
        "{workload}: segments bound to CPUs {} (- = unbound)",
        cpus.join(" ")
    )
}

/// OS threads of this process, from `/proc/self/status`.
pub fn os_threads() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Counts heap allocations while tracing is on (the per-layer
/// `process.allocs_per_item`); untraced runs pay one relaxed load.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged; the counter has no effect on the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if crate::trace::enabled() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if crate::trace::enabled() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if crate::trace::enabled() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations counted so far (only while tracing is on).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The `q` quantile (0..=1) of `values` by nearest rank; sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The median; the mean of the two middle values for an even count.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p99/p90 with at least ten samples beyond it, printed
/// with its sample count for reference (not a gated metric).
pub fn tail_note(label: &str, values: &mut [f64]) -> String {
    let n = values.len();
    let (name, q) = if n >= 1000 {
        ("p99", 0.99)
    } else if n >= 100 {
        ("p90", 0.90)
    } else {
        ("p50", 0.5)
    };
    let p50 = median(values);
    let tail = quantile(values, q);
    format!("{label}: p50 {p50:.1} us, {name} {tail:.1} us (n = {n})")
}

/// The five end-to-end metrics every workload reports.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub items_per_s: f64,
    pub latency_p50_us: f64,
    pub cpu_us_per_item: f64,
    pub control_latency_p50_us: f64,
}

pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("cpu_us_per_item", "us"),
    ("control_latency_p50_us", "us"),
];

/// Every per-layer metric, named by module, with its unit. A traced run
/// prints all of them; a layer the workload does not cross reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("mbthread.switches_per_item", "count"),
    ("mbthread.messages_per_item", "count"),
    ("mbthread.handoff_us", "us"),
    ("infopipes.put_us", "us"),
    ("infopipes.get_us", "us"),
    ("infopipes.start_ms", "ms"),
    ("infopipes.threads", "count"),
    ("infopipes.event_send_us", "us"),
    ("infopipes.event_wait_us", "us"),
    ("infopipes.inbox_fill", "count"),
    ("infopipes.idle_event_us", "us"),
    ("infopipes.copies_per_item", "count"),
    ("netpipe.marshal_us", "us"),
    ("netpipe.unmarshal_us", "us"),
    ("netpipe.send_us", "us"),
    ("netpipe.link_us", "us"),
    ("netpipe.wire_writes_per_frame", "count"),
    ("netpipe.pool_miss_rate", "ratio"),
    ("serve.broadcast_us", "us"),
    ("serve.sweep_us", "us"),
    ("serve.recv_us", "us"),
    ("serve.admit_ms", "ms"),
    ("serve.event_us", "us"),
    ("media.fragment_us", "us"),
    ("media.defrag_us", "us"),
    ("media.decode_us", "us"),
    ("media.packets_per_frame", "count"),
    ("process.allocs_per_item", "count"),
    ("process.os_threads", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed on the operations that did not fail.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: EndToEnd,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: the end-to-end metrics untraced, the per-layer ones
/// traced.
pub fn result_json(out: &Outcome, traced: bool) -> String {
    let e = &out.e2e;
    let pairs: Vec<(&str, &str, f64)> = if traced {
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, *u, out.layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values = [
            e.setup_s,
            e.items_per_s,
            e.latency_p50_us,
            e.cpu_us_per_item,
            e.control_latency_p50_us,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (*n, *u, v))
            .collect()
    };
    let metrics: Vec<String> = pairs
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Watches a progress counter; reports a stall once it has not moved for
/// [`STALL`].
pub struct Watchdog {
    last: u64,
    since: Instant,
}

impl Watchdog {
    pub fn new(progress: u64) -> Watchdog {
        Watchdog {
            last: progress,
            since: Instant::now(),
        }
    }

    /// Whether `progress` has been stuck for longer than the stall limit.
    pub fn stalled(&mut self, progress: u64) -> bool {
        if progress != self.last {
            self.last = progress;
            self.since = Instant::now();
            false
        } else {
            self.since.elapsed() > STALL
        }
    }
}

/// Where traced runs write their spans: inside the build directory.
pub fn span_dir() -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(".bench_build"));
    base.join("perfbench-spans")
}

/// The timed phase is cut into windows of this length; throughput and CPU
/// per item are medians over windows, which a burst of noise from outside
/// the process moves less than a mean over the whole phase.
pub const WINDOW: Duration = Duration::from_millis(250);

/// How many windows fit in `seconds` (at least two).
pub fn windows_in(seconds: f64) -> usize {
    ((seconds / WINDOW.as_secs_f64()).round() as usize).max(2)
}

/// Progress at one window boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub at: u64,
    pub cpu: u64,
    pub items: u64,
}

impl Tally {
    pub fn now(items: u64) -> Tally {
        Tally {
            at: now_ns(),
            cpu: cpu_ns(),
            items,
        }
    }
}

/// The median over segments of one figure of each segment. Segments
/// differ more from each other than windows of one segment do, so the
/// typical segment is what a run reports.
pub fn across<T>(segments: &[T], figure: impl Fn(&T) -> f64) -> f64 {
    let mut v: Vec<f64> = segments.iter().map(figure).collect();
    median(&mut v)
}

/// One diagnostic line listing a figure of every segment.
pub fn per_segment<T>(label: &str, segments: &[T], figure: impl Fn(&T) -> f64) -> String {
    let v: Vec<String> = segments
        .iter()
        .map(|s| format!("{:.1}", figure(s)))
        .collect();
    format!("{label} per segment: {}", v.join(" "))
}

/// The median of a segment's samples (without reordering the caller's).
pub fn median_of(values: &[f64]) -> f64 {
    median(&mut values.to_vec())
}

/// Median items per second and median CPU µs per item over the windows
/// between consecutive tallies.
pub fn window_medians(tallies: &[Tally]) -> (f64, f64) {
    let mut rates = Vec::new();
    let mut cpus = Vec::new();
    for w in tallies.windows(2) {
        let items = w[1].items.saturating_sub(w[0].items);
        let secs = w[1].at.saturating_sub(w[0].at) as f64 / 1e9;
        if items == 0 || secs <= 0.0 {
            rates.push(0.0);
            continue;
        }
        rates.push(items as f64 / secs);
        cpus.push(w[1].cpu.saturating_sub(w[0].cpu) as f64 / 1e3 / items as f64);
    }
    (median(&mut rates), median(&mut cpus))
}
