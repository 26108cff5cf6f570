//! Spans around calls into the program's layers, kept in memory.
//!
//! A span times one call into a layer's public function. Spans nest: a
//! layer's self time is its span time minus the time of the spans
//! opened inside it, so summing self times over every layer gives the
//! traced wall time exactly once.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    /// Spans closed.
    pub calls: u64,
    /// Wall time inside the spans, children included.
    pub total_ns: u64,
    /// Wall time inside the spans minus their child spans.
    pub self_ns: u64,
}

impl Layer {
    /// Mean span time in nanoseconds (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// The span recorder. A disabled recorder runs the same calls with no
/// timing, which is what the tracing overhead is measured against.
#[derive(Debug, Default)]
pub struct Tracer {
    disabled: bool,
    open: Vec<(Instant, u64)>,
    layers: BTreeMap<&'static str, Layer>,
}

impl Tracer {
    /// A recorder whose spans only run their body.
    pub fn disabled() -> Tracer {
        Tracer {
            disabled: true,
            ..Tracer::default()
        }
    }

    /// Runs `f` inside a span named `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if self.disabled {
            return f(self);
        }
        self.open.push((Instant::now(), 0));
        let out = f(self);
        let (start, child_ns) = self.open.pop().expect("span stack balanced");
        let ns = start.elapsed().as_nanos() as u64;
        if let Some(parent) = self.open.last_mut() {
            parent.1 += ns;
        }
        let l = self.layers.entry(layer).or_default();
        l.calls += 1;
        l.total_ns += ns;
        l.self_ns += ns.saturating_sub(child_ns);
        out
    }

    /// The layer's totals (all zero when it never ran).
    pub fn layer(&self, layer: &str) -> Layer {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Self time summed over every layer, in nanoseconds.
    pub fn self_sum_ns(&self) -> u64 {
        self.layers.values().map(|l| l.self_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_child_spans() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let (outer, inner) = (t.layer("outer"), t.layer("inner"));
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ns >= 5_000_000);
        assert!(outer.total_ns >= outer.self_ns + inner.total_ns);
        assert!(outer.self_ns >= 2_000_000 && outer.self_ns < inner.self_ns);
        assert_eq!(t.self_sum_ns(), outer.total_ns);
        assert_eq!(t.layer("absent").calls, 0);

        let mut off = Tracer::disabled();
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert_eq!(off.layer("outer").calls, 0);
    }
}
