//! Resource accounting: a counting global allocator plus scoped guards
//! that attribute bytes allocated, allocation counts, and peak in-scope
//! usage to a pipeline stage — the memory half of the paper's Fig. 7
//! per-component breakdown.
//!
//! The allocator type [`CountingAlloc`] is always compiled (so it is
//! testable under the default feature set); *installing* it is the
//! binary's choice. Binaries built with the `alloc-profile` feature can
//! call `install_counting_allocator!`, and any binary (including an
//! integration-test binary) may declare it directly:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: eoml_obs::resource::CountingAlloc =
//!     eoml_obs::resource::CountingAlloc::new();
//! ```
//!
//! When no counting allocator is installed every delta reads zero and
//! [`ResourceGuard`] degrades to a no-op: nothing is written into the
//! registry, so reports never show fake zeros.
//!
//! Counters are process-global atomics, so attribution is *scoped*, not
//! *thread-bound*: a guard charges everything allocated anywhere in the
//! process while it is open. That is exactly right for the pipeline
//! drivers here (one stage pumps at a time inside a discrete-event
//! simulation) and a documented approximation for overlapping real runs,
//! where peaks attribute to the innermost open guard.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metrics::MetricsSnapshot;
use crate::table::{Cell, Table};
use crate::Obs;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static IN_USE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `IN_USE_BYTES` since the last guard reset.
static SCOPE_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counter names [`ResourceGuard`] writes into the registry.
pub const ALLOC_BYTES_COUNTER: &str = "alloc_bytes";
/// Allocation-count counter name.
pub const ALLOC_COUNT_COUNTER: &str = "allocs";
/// Peak in-scope usage gauge name.
pub const ALLOC_PEAK_GAUGE: &str = "alloc_peak_bytes";

/// Counting wrapper around the system allocator. Each (de)allocation is
/// a handful of relaxed atomic ops on top of `System`.
pub struct CountingAlloc;

impl CountingAlloc {
    /// `const` constructor for `#[global_allocator]` statics.
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

fn record_alloc(bytes: u64) {
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    let in_use = IN_USE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    SCOPE_PEAK_BYTES.fetch_max(in_use, Ordering::Relaxed);
}

fn record_dealloc(bytes: u64) {
    FREED_BYTES.fetch_add(bytes, Ordering::Relaxed);
    // Saturating: a guard-free program may free allocations made before
    // the counters existed only in theory (the allocator counts from
    // process start), but stay defensive.
    let _ = IN_USE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(bytes))
    });
}

// SAFETY: defers all allocation to `System`; bookkeeping is atomic
// counters only and never allocates, so there is no reentrancy.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            record_dealloc(layout.size() as u64);
            record_alloc(new_size as u64);
        }
        new_ptr
    }
}

/// Install [`CountingAlloc`] as the process global allocator. Only
/// exported when `eoml-obs` is built with the `alloc-profile` feature,
/// so plain library consumers never pay the per-allocation bookkeeping.
#[cfg(feature = "alloc-profile")]
#[macro_export]
macro_rules! install_counting_allocator {
    () => {
        #[global_allocator]
        static EOML_COUNTING_ALLOC: $crate::resource::CountingAlloc =
            $crate::resource::CountingAlloc::new();
    };
}

/// Whether a counting allocator is live in this process. Heuristic but
/// reliable: by the time any caller can ask, an installed counting
/// allocator has already counted the caller's own allocations.
pub fn counting_active() -> bool {
    ALLOC_COUNT.load(Ordering::Relaxed) > 0
}

/// Point-in-time reading of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Total bytes ever allocated.
    pub allocated_bytes: u64,
    /// Total bytes ever freed.
    pub freed_bytes: u64,
    /// Total allocation calls.
    pub allocation_count: u64,
    /// Bytes currently live.
    pub in_use_bytes: u64,
}

/// Read the current allocator counters (all zero when no counting
/// allocator is installed).
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocated_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
        allocation_count: ALLOC_COUNT.load(Ordering::Relaxed),
        in_use_bytes: IN_USE_BYTES.load(Ordering::Relaxed),
    }
}

/// What one [`ResourceGuard`] scope cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceReport {
    /// Stage the scope was attributed to.
    pub stage: String,
    /// Component name within the stage.
    pub name: String,
    /// Bytes allocated while the scope was open.
    pub allocated_bytes: u64,
    /// Allocation calls while the scope was open.
    pub allocation_count: u64,
    /// Bytes freed while the scope was open.
    pub freed_bytes: u64,
    /// Peak live bytes observed while the scope was open.
    pub peak_in_use_bytes: u64,
}

impl ResourceReport {
    /// Net change in live bytes over the scope (negative = the scope
    /// freed more than it allocated).
    pub fn net_bytes(&self) -> i64 {
        self.allocated_bytes as i64 - self.freed_bytes as i64
    }
}

/// RAII scope that attributes allocator activity to a `(stage, name)`
/// label pair, writing `alloc_bytes` / `allocs` counters and an
/// `alloc_peak_bytes` gauge into the attached [`Obs`] registry on drop.
///
/// Opening a guard resets the process-wide scope peak to the current
/// live-byte count, so nested guards attribute peaks to the innermost
/// open scope.
pub struct ResourceGuard {
    obs: Option<Arc<Obs>>,
    stage: String,
    name: String,
    start: AllocSnapshot,
    finished: bool,
}

impl ResourceGuard {
    /// Open a scope that reports into `obs` on drop.
    pub fn enter(obs: Arc<Obs>, stage: &str, name: &str) -> ResourceGuard {
        ResourceGuard::new(Some(obs), stage, name)
    }

    /// Open a scope that only measures (no registry write); read the
    /// result with [`ResourceGuard::finish`].
    pub fn detached(stage: &str, name: &str) -> ResourceGuard {
        ResourceGuard::new(None, stage, name)
    }

    fn new(obs: Option<Arc<Obs>>, stage: &str, name: &str) -> ResourceGuard {
        let start = snapshot();
        SCOPE_PEAK_BYTES.store(start.in_use_bytes, Ordering::Relaxed);
        ResourceGuard {
            obs,
            stage: stage.to_string(),
            name: name.to_string(),
            start,
            finished: false,
        }
    }

    /// Measure the scope so far without closing it.
    pub fn measure(&self) -> ResourceReport {
        let now = snapshot();
        ResourceReport {
            stage: self.stage.clone(),
            name: self.name.clone(),
            allocated_bytes: now
                .allocated_bytes
                .saturating_sub(self.start.allocated_bytes),
            allocation_count: now
                .allocation_count
                .saturating_sub(self.start.allocation_count),
            freed_bytes: now.freed_bytes.saturating_sub(self.start.freed_bytes),
            peak_in_use_bytes: SCOPE_PEAK_BYTES
                .load(Ordering::Relaxed)
                .max(self.start.in_use_bytes),
        }
    }

    /// Close the scope and return its report (also records it, like drop
    /// would).
    pub fn finish(mut self) -> ResourceReport {
        let report = self.measure();
        self.record(&report);
        self.finished = true;
        report
    }

    fn record(&self, report: &ResourceReport) {
        // Without a counting allocator every delta is zero — skip the
        // registry write so absent instrumentation is absent, not zero.
        if report.allocation_count == 0 && !counting_active() {
            return;
        }
        let Some(obs) = &self.obs else { return };
        let metrics = obs.metrics();
        metrics.counter_add(ALLOC_BYTES_COUNTER, &self.stage, report.allocated_bytes);
        metrics.counter_add(ALLOC_COUNT_COUNTER, &self.stage, report.allocation_count);
        let peak = report.peak_in_use_bytes as f64;
        let current = metrics
            .gauge_value(ALLOC_PEAK_GAUGE, &self.stage)
            .unwrap_or(0.0);
        if peak > current {
            metrics.gauge_set(ALLOC_PEAK_GAUGE, &self.stage, peak);
        }
    }
}

impl Drop for ResourceGuard {
    fn drop(&mut self) {
        if !self.finished {
            let report = self.measure();
            self.record(&report);
        }
    }
}

/// Fig.-7-style memory breakdown over the registry's resource counters:
/// one row per stage with allocated MB, allocation count, and peak live
/// MB. Empty when no [`ResourceGuard`] ever reported (e.g. the counting
/// allocator is not installed).
pub fn memory_table(snapshot: &MetricsSnapshot) -> Table {
    let mut table = Table::new("fig7_memory", &["stage", "alloc_mb", "allocs", "peak_mb"]);
    let mut stages: Vec<&str> = snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.name == ALLOC_BYTES_COUNTER)
        .map(|(k, _)| k.stage.as_str())
        .collect();
    stages.sort_unstable();
    stages.dedup();
    for stage in stages {
        let get = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(k, _)| k.name == name && k.stage == stage)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let peak = snapshot
            .gauges
            .iter()
            .find(|(k, _)| k.name == ALLOC_PEAK_GAUGE && k.stage == stage)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        table.row(vec![
            Cell::str(stage),
            Cell::num(get(ALLOC_BYTES_COUNTER) as f64 / (1024.0 * 1024.0), 2),
            Cell::int(get(ALLOC_COUNT_COUNTER) as i64),
            Cell::num(peak / (1024.0 * 1024.0), 2),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    // NOTE: these unit tests run without a counting allocator installed
    // (the lib test binary keeps the system allocator), so they cover the
    // zero/no-op path; tests/resource.rs installs CountingAlloc and
    // covers live counting.

    #[test]
    fn detached_guard_without_allocator_reads_zero() {
        let guard = ResourceGuard::detached("preprocess", "granule");
        let big: Vec<u8> = vec![7; 1 << 16];
        let report = guard.finish();
        assert_eq!(report.allocated_bytes, 0);
        assert_eq!(report.allocation_count, 0);
        drop(big);
    }

    #[test]
    fn guard_without_activity_writes_nothing() {
        let obs = Obs::shared();
        drop(ResourceGuard::enter(
            Arc::clone(&obs),
            "preprocess",
            "granule",
        ));
        let snap = obs.metrics().snapshot();
        assert!(snap
            .counters
            .iter()
            .all(|(k, _)| k.name != ALLOC_BYTES_COUNTER));
    }

    #[test]
    fn memory_table_rows_follow_resource_counters() {
        let reg = MetricsRegistry::default();
        reg.counter_add(ALLOC_BYTES_COUNTER, "preprocess", 3 * 1024 * 1024);
        reg.counter_add(ALLOC_COUNT_COUNTER, "preprocess", 42);
        reg.gauge_set(ALLOC_PEAK_GAUGE, "preprocess", (5 * 1024 * 1024) as f64);
        reg.counter_add(ALLOC_BYTES_COUNTER, "download", 1024 * 1024);
        let table = memory_table(&reg.snapshot());
        assert_eq!(table.name, "fig7_memory");
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[1][0], Cell::str("preprocess"));
        assert_eq!(table.rows[1][1], Cell::num(3.0, 2));
        assert_eq!(table.rows[1][2], Cell::int(42));
        assert_eq!(table.rows[1][3], Cell::num(5.0, 2));
    }

    #[test]
    fn memory_table_is_empty_without_counters() {
        let reg = MetricsRegistry::default();
        reg.counter_add("spans_closed", "download", 3);
        assert!(memory_table(&reg.snapshot()).rows.is_empty());
    }
}
