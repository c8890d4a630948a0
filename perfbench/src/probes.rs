//! Control probes: numbered events sent into a running workload, with
//! the time each receiver's handler (or reader) saw them.

use crate::common::now_ns;
use infopipes::ControlEvent;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A table of probes, each expected at `receivers` places.
pub struct Probes {
    name: &'static str,
    receivers: usize,
    sent_before: Vec<AtomicU64>,
    sent_after: Vec<AtomicU64>,
    /// `seen[k * receivers + r]`: when receiver `r` handled probe `k`.
    seen: Vec<AtomicU64>,
    count: AtomicUsize,
}

/// One probe's timings, in microseconds.
pub struct Delivered {
    /// From the start of the send call until the last receiver saw it.
    pub latency_us: f64,
    /// Time inside the send call.
    pub send_us: f64,
    /// From the send call's return until the last receiver saw it.
    pub wait_us: f64,
}

impl Probes {
    pub fn new(name: &'static str, capacity: usize, receivers: usize) -> Probes {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Probes {
            name,
            receivers,
            sent_before: zeros(capacity),
            sent_after: zeros(capacity),
            seen: zeros(capacity * receivers),
            count: AtomicUsize::new(0),
        }
    }

    /// Sends the next probe through `send`; `None` when the table is full.
    pub fn send(&self, send: impl FnOnce(ControlEvent)) -> Option<usize> {
        let k = self.count.load(Ordering::Relaxed);
        if k >= self.sent_before.len() {
            return None;
        }
        let event = ControlEvent::custom(self.name, k as f64);
        self.sent_before[k].store(now_ns(), Ordering::Relaxed);
        send(event);
        self.sent_after[k].store(now_ns(), Ordering::Relaxed);
        // Release: a reader that sees the count sees the send times.
        self.count.store(k + 1, Ordering::Release);
        Some(k)
    }

    /// The probe number an event carries, if it is one of this table's.
    pub fn index_of(&self, event: &ControlEvent) -> Option<usize> {
        match event {
            ControlEvent::Custom { name, value } if name.as_ref() == self.name => {
                let k = *value as usize;
                (k < self.sent_before.len()).then_some(k)
            }
            _ => None,
        }
    }

    /// Notes that receiver `r` handled `event` now (first sighting counts).
    pub fn note(&self, event: &ControlEvent, r: usize) {
        if let Some(k) = self.index_of(event) {
            let slot = &self.seen[k * self.receivers + r];
            let _ = slot.compare_exchange(0, now_ns(), Ordering::Relaxed, Ordering::Relaxed);
        }
    }

    pub fn sent(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Whether every receiver has seen probe `k`.
    pub fn complete(&self, k: usize) -> bool {
        (0..self.receivers).all(|r| self.seen[k * self.receivers + r].load(Ordering::Relaxed) != 0)
    }

    /// Timings of the probes in `range` that every receiver saw, and the
    /// number that some receiver missed.
    pub fn results(&self, range: std::ops::Range<usize>) -> (Vec<Delivered>, u64) {
        let mut delivered = Vec::new();
        let mut missed = 0;
        for k in range {
            if !self.complete(k) {
                missed += 1;
                continue;
            }
            let last = (0..self.receivers)
                .map(|r| self.seen[k * self.receivers + r].load(Ordering::Relaxed))
                .max()
                .unwrap_or(0);
            let before = self.sent_before[k].load(Ordering::Relaxed);
            let after = self.sent_after[k].load(Ordering::Relaxed);
            delivered.push(Delivered {
                latency_us: last.saturating_sub(before) as f64 / 1e3,
                send_us: after.saturating_sub(before) as f64 / 1e3,
                wait_us: last.saturating_sub(after) as f64 / 1e3,
            });
        }
        (delivered, missed)
    }

    /// Per-receiver latencies (µs) of the probes in `range`, for readers
    /// whose every sighting is a sample (serving sessions).
    pub fn per_receiver_us(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        let mut out = Vec::new();
        for k in range {
            let before = self.sent_before[k].load(Ordering::Relaxed);
            for r in 0..self.receivers {
                let t = self.seen[k * self.receivers + r].load(Ordering::Relaxed);
                if t != 0 {
                    out.push(t.saturating_sub(before) as f64 / 1e3);
                }
            }
        }
        out
    }
}
