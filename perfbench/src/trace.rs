//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span has a name, a start, an end, a parent and an item id. Spans
//! are kept in memory while the run lasts and written out when it ends.
//! Same-thread nesting sets the parent automatically; a layer's self time
//! is its span minus its children's spans.
//!
//! [`Traced`] wraps a program stage without changing its activity style:
//! it delegates `accepts`, `transform_spec`, `offers` and `on_event`, so
//! the planner makes the same plan with tracing on and off.

use crate::common::now_ns;
use infopipes::{
    Consumer, ControlEvent, EventCtx, Function, Item, Stage, StageCtx, TypeError, Typespec,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static LAST_ITEM: Cell<Option<u64>> = const { Cell::new(None) };
}

/// One recorded span. Times are nanoseconds on the benchmark clock.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread, or 0.
    pub parent: u64,
    pub name: &'static str,
    pub item: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; close it with [`close`].
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    item: u64,
    start: u64,
}

/// Opens a span on this thread, nested under the innermost open one.
pub fn open(name: &'static str, item: u64) -> Open {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Open {
        id,
        parent,
        name,
        item,
        start: now_ns(),
    }
}

/// Closes a span and keeps it; `item` overrides the id given at open
/// (for layers whose item is known only after the call).
pub fn close_as(o: Open, item: Option<u64>) {
    let end = now_ns();
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        debug_assert_eq!(s.last(), Some(&o.id), "spans close in order");
        s.pop();
    });
    if let Some(item) = item {
        push(Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            item,
            start: o.start,
            end,
        });
    }
}

pub fn close(o: Open) {
    let item = o.item;
    close_as(o, Some(item));
}

/// Records a span measured by the caller, nested under the innermost
/// open span of this thread.
pub fn record(name: &'static str, item: u64, start: u64, end: u64) {
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        item,
        start,
        end,
    });
}

fn push(span: Span) {
    SPANS.lock().expect("span store poisoned").push(span);
}

/// The item id the last traced stage on this thread saw (`None` when
/// that item was not sampled): lets a stage whose input no longer shows
/// the item (a send end taking marshalled bytes) join the same item.
pub fn last_item() -> Option<u64> {
    LAST_ITEM.with(Cell::get)
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Self time of each span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child.entry(s.parent).or_default() += s.dur();
        }
    }
    spans
        .iter()
        .map(|s| {
            let c = child.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur().saturating_sub(c))
        })
        .collect()
}

/// Self times (µs) of every span called `name`, summed per item.
pub fn self_us_per_item(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> Vec<f64> {
    let mut per_item: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *per_item.entry(s.item).or_default() += selfs[&s.id];
    }
    per_item.values().map(|&ns| ns as f64 / 1e3).collect()
}

/// Writes each segment's spans as tab-separated lines; a failure is
/// reported, not fatal, since the metrics are already computed.
pub fn write_out(segments: &[&[Span]], workload: &str) {
    let dir = crate::common::span_dir();
    let path = dir.join(format!("{workload}.tsv"));
    let mut count = 0;
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "segment\tid\tparent\tname\titem\tstart_ns\tend_ns")?;
        for (seg, spans) in segments.iter().enumerate() {
            for s in spans.iter() {
                writeln!(
                    w,
                    "{seg}\t{}\t{}\t{}\t{}\t{}\t{}",
                    s.id, s.parent, s.name, s.item, s.start, s.end
                )?;
                count += 1;
            }
        }
        w.flush()
    });
    match result {
        Ok(()) => eprintln!("spans: {count} written to {}", path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

/// Picks the item id of a traced call, or `None` to leave it untraced.
pub type ItemId = fn(&Item) -> Option<u64>;

/// Which side of the call shows the item id.
#[derive(Clone, Copy)]
pub enum IdFrom {
    Input(ItemId),
    Output(ItemId),
}

/// A program stage with a span around each call into it.
pub struct Traced<S> {
    inner: S,
    span: &'static str,
    id: IdFrom,
}

impl<S> Traced<S> {
    pub fn new(inner: S, span: &'static str, id: IdFrom) -> Traced<S> {
        Traced { inner, span, id }
    }

    fn begin(&self, item: &Item) -> Option<(Open, bool)> {
        if !enabled() {
            return None;
        }
        match self.id {
            IdFrom::Input(f) => {
                let id = f(item);
                LAST_ITEM.with(|c| c.set(id));
                id.map(|id| (open(self.span, id), false))
            }
            IdFrom::Output(_) => Some((open(self.span, 0), true)),
        }
    }

    fn end(&self, open: Option<(Open, bool)>, out: Option<&Item>) {
        let Some((o, from_output)) = open else {
            return;
        };
        if from_output {
            let IdFrom::Output(f) = self.id else {
                unreachable!("output ids come from IdFrom::Output")
            };
            let id = out.and_then(f);
            LAST_ITEM.with(|c| c.set(id));
            close_as(o, id);
        } else {
            close(o);
        }
    }
}

impl<S: Stage> Stage for Traced<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(&mut self, ctx: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        self.inner.on_event(ctx, event);
    }

    fn accepts(&self) -> Typespec {
        self.inner.accepts()
    }

    fn transform_spec(&self, input: &Typespec) -> Result<Typespec, TypeError> {
        self.inner.transform_spec(input)
    }

    fn offers(&self) -> Typespec {
        self.inner.offers()
    }
}

impl<C: Consumer> Consumer for Traced<C> {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        let open = self.begin(&item);
        self.inner.push(ctx, item);
        self.end(open, None);
    }
}

impl<F: Function> Function for Traced<F> {
    fn convert(&mut self, item: Item) -> Option<Item> {
        let open = self.begin(&item);
        let out = self.inner.convert(item);
        self.end(open, out.as_ref());
        out
    }
}
