//! Bench-owned tracing: spans recorded around the calls into each layer,
//! kept in memory and written out when the run ends, plus the process's
//! allocator. Spans are recorded only in traced runs. The allocator's
//! accounting is armed in traced runs and, in end-to-end runs, for the
//! memory phase that follows the timed window — never while anything is
//! timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use crate::stats;
use crate::surface::Json;

/// One recorded span. Times are microseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// The span that caused this one. On the ladder, rungs are separate
    /// calls into the program, so the parent is the rung above — the
    /// caller this call would have had inside the program.
    pub parent: Option<&'static str>,
    /// Spans of one ladder pass, or of one request, share an iteration.
    pub iteration: u64,
}

/// Records spans in memory.
pub struct Tracer {
    origin: Instant,
    armed: bool,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            armed: true,
            spans: Vec::new(),
        }
    }

    /// Arms or disarms recording; a disarmed tracer still times.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    fn micros(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_micros() as u64
    }

    /// Records an interval measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        iteration: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.armed {
            let (start_us, end_us) = (self.micros(start), self.micros(end));
            self.spans.push(Span {
                name,
                start_us,
                end_us,
                parent,
                iteration,
            });
        }
    }

    /// Times `f` as one span and returns its result and its duration in
    /// microseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        iteration: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, iteration, start, end);
        (out, end.duration_since(start).as_secs_f64() * 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per iteration, the summed duration of the spans called `name`, in
    /// microseconds; then the median over iterations. `None` when there
    /// are none: the run never entered that stage.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let mut per_iteration = std::collections::BTreeMap::<u64, f64>::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_iteration.entry(s.iteration).or_default() += (s.end_us - s.start_us) as f64;
        }
        let sums: Vec<f64> = per_iteration.into_values().collect();
        (!sums.is_empty()).then(|| stats::median(&sums))
    }

    /// A span's self time by the book: its duration minus the part of its
    /// interval that its child spans (same iteration, `parent` naming it)
    /// cover; the median over iterations, in microseconds. Meaningful
    /// where children really run inside the parent — the conv and kernel
    /// rungs — not between rungs, which are separate calls.
    pub fn self_time_us(&self, name: &str) -> Option<f64> {
        let selfs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|p| {
                let children: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(p.name) && c.iteration == p.iteration)
                    .map(|c| (c.start_us, c.end_us))
                    .collect();
                stats::self_time((p.start_us, p.end_us), &children) as f64
            })
            .collect();
        (!selfs.is_empty()).then(|| stats::median(&selfs))
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("name", Json::from(s.name)),
                ("start", Json::Num(s.start_us as f64)),
                ("end", Json::Num(s.end_us as f64)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("iteration", Json::Num(s.iteration as f64)),
            ]);
            writeln!(out, "{}", line.to_string_compact())?;
        }
        out.flush()
    }
}

/// The system allocator. Disarmed — during every set-up and every timed
/// window — it is a pass-through behind one relaxed load of a flag no
/// thread writes. Armed, it counts calls and bytes and keeps the live
/// byte count and its peak.
pub struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Signed: a block allocated before arming may be freed while armed.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Books one allocation of `size` bytes that makes `growth` more bytes
/// live (a `realloc` grows by the difference, in one step, so the peak
/// never sees the old block gone before the new one is there).
fn book(size: usize, growth: i64) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(growth, Ordering::Relaxed) + growth;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and touch no allocator state. (A failed allocation is still
// booked: the process aborts on it anyway.)
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            book(layout.size(), layout.size() as i64);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout`, since
        // every allocation of this allocator does.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            book(layout.size(), layout.size() as i64);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            book(new_size, new_size as i64 - layout.size() as i64);
        }
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Arms or disarms the accounting, on every thread.
pub fn arm_allocator(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Forgets the peak so far: the next [`peak_live_bytes`] is the peak
/// since this call.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Most bytes live at once since the last [`reset_peak`], of those
/// allocated while armed.
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64
}

/// `(allocations, bytes)` counted so far.
pub fn allocation_counts() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_sums_spans_per_iteration_and_takes_the_median() {
        let mut t = Tracer::new();
        let origin = t.origin;
        let at = |us: u64| origin + std::time::Duration::from_micros(us);
        let spans = [
            ("rung", 0, 0, 100),
            ("rung", 1, 200, 500),
            ("rung", 2, 600, 800),
            // two parts of one iteration add up
            ("part", 0, 0, 10),
            ("part", 0, 20, 50),
            ("part", 1, 60, 80),
        ];
        for (name, iteration, start, end) in spans {
            let (s, e) = (at(start), at(end));
            t.record(name, None, iteration, s, e);
        }
        assert_eq!(t.median_us("rung"), Some(200.0));
        assert_eq!(t.median_us("part"), Some(30.0));
        assert_eq!(t.median_us("absent"), None);
        // children inside their parent: 100 − (30 + 20) and 300 − 100
        for (iteration, start, end) in [(0, 10, 40), (0, 50, 70), (1, 200, 300), (2, 0, 9)] {
            let (s, e) = (at(start), at(end));
            t.record("child", Some("rung"), iteration, s, e);
        }
        assert_eq!(
            t.self_time_us("rung"),
            Some(200.0),
            "selfs are 50, 200 and 200"
        );
        assert_eq!(t.self_time_us("absent"), None);
        t.set_armed(false);
        let (value, us) = t.time("rung", None, 3, || 7);
        assert_eq!(value, 7);
        assert!(us >= 0.0);
        assert_eq!(t.spans().len(), 10, "a disarmed tracer records nothing");
    }

    #[test]
    fn spans_are_written_one_json_object_per_line() {
        let mut t = Tracer::new();
        t.time("serve.http", None, 0, || ());
        t.time("serve.scheduler", Some("serve.http"), 0, || ());
        let path = std::env::temp_dir().join(format!("wa-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(
            lines[1].get("parent").and_then(Json::as_str),
            Some("serve.http")
        );
        for key in ["name", "start", "end", "parent", "iteration"] {
            assert!(lines[1].get(key).is_some(), "{key}");
        }
    }

    /// Other tests allocate and free (a little) while this one has the
    /// accounting armed, so every assertion leaves a MiB of slack.
    #[test]
    fn an_armed_allocator_counts_and_a_disarmed_one_does_not() {
        const MIB: usize = 1 << 20;
        arm_allocator(true);
        let (calls0, bytes0) = allocation_counts();
        reset_peak();
        let floor = peak_live_bytes();
        let mut block = vec![1u8; 4 * MIB];
        block.reserve_exact(4 * MIB); // a realloc: 8 MiB live, never 12
        let grown = peak_live_bytes();
        drop(block);
        reset_peak();
        let after_drop = peak_live_bytes();
        arm_allocator(false);
        let (calls, bytes) = allocation_counts();
        assert!(calls >= calls0 + 2 && bytes >= bytes0 + 12 * MIB as u64);
        assert!(grown >= floor + 7 * MIB as u64, "{floor} -> {grown}");
        assert!(
            after_drop + 6 * MIB as u64 <= grown,
            "{grown} -> {after_drop}"
        );
        // disarmed: a pass-through
        let (calls0, _) = allocation_counts();
        drop(vec![1u8; MIB]);
        let (calls, _) = allocation_counts();
        assert!(calls - calls0 < 1000, "only stragglers of other tests");
    }
}
