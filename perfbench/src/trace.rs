//! Spans around the benchmark's calls into each layer.
//!
//! A traced run times every public call it makes into a layer inside a
//! span on one [`Obs`] hub — the in-memory span store — and derives the
//! per-layer metrics from those spans. An untraced run opens no spans.

use eoml_obs::Obs;
use std::path::Path;

/// Span recorder; a no-op when tracing is off.
pub struct Tracer {
    hub: Option<Obs>,
}

impl Tracer {
    /// Recorder that keeps nothing.
    pub fn off() -> Tracer {
        Tracer { hub: None }
    }

    /// Recorder backed by a fresh hub.
    pub fn on() -> Tracer {
        Tracer {
            hub: Some(Obs::new()),
        }
    }

    /// Run `f` inside a `(layer, call)` span.
    pub fn span<T>(&self, layer: &str, call: &str, f: impl FnOnce() -> T) -> T {
        let _guard = self.hub.as_ref().map(|h| h.span(layer, call));
        f()
    }

    /// Add `n` to the `(layer, name)` work counter.
    pub fn count(&self, layer: &str, name: &str, n: u64) {
        if let Some(h) = &self.hub {
            h.counter_add(name, layer, n);
        }
    }

    /// Value of a work counter (0 when never counted).
    pub fn counter(&self, layer: &str, name: &str) -> u64 {
        self.hub
            .as_ref()
            .and_then(|h| h.metrics().counter_value(name, layer))
            .unwrap_or(0)
    }

    /// Wall seconds of every `(layer, call)` span, in recording order.
    pub fn secs(&self, layer: &str, call: &str) -> Vec<f64> {
        self.hub
            .as_ref()
            .map(|h| {
                h.spans()
                    .into_iter()
                    .filter(|s| s.stage == layer && s.name == call)
                    .map(|s| s.wall_seconds())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total wall seconds of every `(layer, call)` span.
    pub fn total(&self, layer: &str, call: &str) -> f64 {
        self.secs(layer, call).iter().sum()
    }

    /// Write the recorded spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        match &self.hub {
            Some(h) => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                std::fs::write(path, h.jsonl())
            }
            None => Ok(()),
        }
    }
}
