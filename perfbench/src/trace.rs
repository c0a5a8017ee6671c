//! Layer spans recorded around the benchmark's own calls into each
//! layer's public functions. Off, a span is a plain call.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::os::Usage;

/// What one layer cost over all of its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCost {
    /// Spans recorded.
    pub calls: u64,
    /// Host wall seconds inside the spans.
    pub host_s: f64,
    /// User CPU seconds inside the spans.
    pub user_s: f64,
    /// System CPU seconds inside the spans.
    pub sys_s: f64,
    /// Minor page faults inside the spans.
    pub minflt: u64,
}

/// Per-layer span accumulator.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    layers: BTreeMap<&'static str, LayerCost>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A tracer that records every span.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            layers: BTreeMap::new(),
        }
    }

    /// Run `f` as one span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let u0 = Usage::now();
        let t0 = Instant::now();
        let out = f();
        let host_s = t0.elapsed().as_secs_f64();
        let used = Usage::now().since(&u0);
        let cost = self.layers.entry(layer).or_default();
        cost.calls += 1;
        cost.host_s += host_s;
        cost.user_s += used.user_s;
        cost.sys_s += used.sys_s;
        cost.minflt += used.minflt;
        out
    }

    /// The accumulated cost of `layer` (zero if it had no span).
    pub fn cost(&self, layer: &str) -> LayerCost {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Host seconds summed over every layer.
    pub fn total_host_s(&self) -> f64 {
        self.layers.values().map(|c| c.host_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_counts_calls() {
        let mut off = Tracer::off();
        assert_eq!(off.span("minimpi", || 7), 7);
        assert_eq!(off.cost("minimpi"), LayerCost::default());

        let mut on = Tracer::on();
        for _ in 0..3 {
            on.span("minimpi", || std::hint::black_box(vec![0u8; 1 << 16]));
        }
        on.span("minspark", || ());
        let mpi = on.cost("minimpi");
        assert_eq!(mpi.calls, 3);
        assert!(mpi.host_s > 0.0);
        assert_eq!(on.cost("minspark").calls, 1);
        assert_eq!(on.cost("minomp"), LayerCost::default());
        let sum = mpi.host_s + on.cost("minspark").host_s;
        assert!((on.total_host_s() - sum).abs() < 1e-12);
    }
}
