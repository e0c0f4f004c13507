//! Trace sinks: where models deliver their events.
//!
//! [`TraceSink`] is the interface the memory harness and the accelerator
//! models are threaded with. Two implementations ship here:
//!
//! - [`NullSink`] — the default. [`TraceSink::enabled`] returns `false`,
//!   so instrumented code skips event construction entirely and the
//!   simulated numbers (and their float rounding) are untouched; this is
//!   what keeps the bench goldens bit-identical whether or not a caller
//!   ever heard of tracing.
//! - [`EventBuffer`] — an in-memory recorder that keeps the unit table
//!   and the full event stream, and derives the per-unit
//!   [`StallBreakdown`]s and DRAM totals the exporters consume.

use crate::breakdown::{DramTotals, StallBreakdown};
use crate::event::{DramClass, TraceEvent, UnitId, UnitKind};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Receiver for trace events. See the [module docs](self).
pub trait TraceSink {
    /// Whether events will actually be recorded. Emitters consult this
    /// before doing any attribution work, so a disabled sink costs one
    /// branch per interval.
    fn enabled(&self) -> bool {
        true
    }

    /// Registers a unit (one timeline) and returns its handle. Disabled
    /// sinks return [`UnitId::NONE`].
    fn unit(&mut self, name: &str, kind: UnitKind) -> UnitId;

    /// Delivers one event.
    fn emit(&mut self, event: TraceEvent);

    /// Advises the sink that about `additional` more events are coming
    /// (e.g. one scheduler interval's worth), so buffering sinks can
    /// reserve instead of growing mid-stream. Default: no-op.
    fn hint_events(&mut self, _additional: usize) {}
}

/// The zero-overhead default sink: records nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn unit(&mut self, _name: &str, _kind: UnitKind) -> UnitId {
        UnitId::NONE
    }

    fn emit(&mut self, _event: TraceEvent) {}
}

/// One registered unit's metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitMeta {
    /// Display name (layer or group name). Interned: units registered
    /// under the same label share one allocation.
    pub name: Arc<str>,
    /// What the unit models.
    pub kind: UnitKind,
}

/// A buffering sink that records the unit table and every event.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventBuffer {
    units: Vec<UnitMeta>,
    events: Vec<TraceEvent>,
    /// Label interner: repeated registrations of the same name (e.g.
    /// `"c0"` across every group of a sweep) reuse one allocation.
    names: BTreeSet<Arc<str>>,
}

impl EventBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer with pre-reserved space for `units` units and
    /// `events` events.
    pub fn with_capacity(units: usize, events: usize) -> Self {
        Self {
            units: Vec::with_capacity(units),
            events: Vec::with_capacity(events),
            names: BTreeSet::new(),
        }
    }

    /// The registered units, indexed by [`UnitId::index`].
    pub fn units(&self) -> &[UnitMeta] {
        &self.units
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Display name of a unit (`"?"` for [`UnitId::NONE`] or an unknown
    /// id).
    pub fn unit_name(&self, unit: UnitId) -> &str {
        if unit.is_some() {
            self.units
                .get(unit.index())
                .map(|m| &*m.name)
                .unwrap_or("?")
        } else {
            "?"
        }
    }

    /// Aggregates the compute events into one [`StallBreakdown`] per
    /// registered unit (in registration order). Units with no compute
    /// events come back with zero cycles.
    pub fn breakdowns(&self) -> Vec<StallBreakdown> {
        let mut out: Vec<StallBreakdown> = self
            .units
            .iter()
            .enumerate()
            .map(|(i, m)| StallBreakdown::new(UnitId(i as u32), m.name.to_string(), m.kind))
            .collect();
        for ev in &self.events {
            if let TraceEvent::Compute {
                unit,
                cycles,
                busy,
                stalls,
                ..
            } = *ev
            {
                if unit.is_some() && unit.index() < out.len() {
                    out[unit.index()].add(cycles, busy, &stalls);
                }
            }
        }
        out
    }

    /// Sums the DRAM events into per-class demand and grant totals.
    pub fn dram_totals(&self) -> DramTotals {
        let mut totals = DramTotals::default();
        for ev in &self.events {
            if let TraceEvent::Dram {
                class,
                demand,
                granted,
                ..
            } = *ev
            {
                totals.add(class, demand, granted);
            }
        }
        totals
    }
}

impl TraceSink for EventBuffer {
    fn unit(&mut self, name: &str, kind: UnitKind) -> UnitId {
        let id = UnitId(self.units.len() as u32);
        let name: Arc<str> = match self.names.get(name) {
            Some(interned) => Arc::clone(interned),
            None => {
                let fresh: Arc<str> = Arc::from(name);
                self.names.insert(Arc::clone(&fresh));
                fresh
            }
        };
        self.units.push(UnitMeta { name, kind });
        id
    }

    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    fn hint_events(&mut self, additional: usize) {
        self.events.reserve(additional);
    }
}

/// Convenience: emit one DRAM event on `sink` if it is enabled and any
/// bytes were demanded or granted.
pub fn emit_dram(
    sink: &mut dyn TraceSink,
    unit: UnitId,
    t: u64,
    cycles: u64,
    class: DramClass,
    demand: f64,
    granted: f64,
) {
    if sink.enabled() && (demand > 0.0 || granted > 0.0) {
        sink.emit(TraceEvent::Dram {
            unit,
            t,
            cycles,
            class,
            demand,
            granted,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallKind;

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let mut s = NullSink;
        assert!(!s.enabled());
        assert_eq!(s.unit("conv1", UnitKind::Layer), UnitId::NONE);
        s.emit(TraceEvent::Compute {
            unit: UnitId::NONE,
            t: 0,
            cycles: 100,
            busy: 1.0,
            stalls: [0.0; 4],
        });
    }

    #[test]
    fn buffer_registers_units_densely() {
        let mut b = EventBuffer::new();
        let a = b.unit("conv1", UnitKind::Layer);
        let c = b.unit("g0", UnitKind::Group);
        assert_eq!((a, c), (UnitId(0), UnitId(1)));
        assert_eq!(b.unit_name(a), "conv1");
        assert_eq!(b.unit_name(UnitId::NONE), "?");
        assert_eq!(b.units().len(), 2);
        assert!(b.is_empty());
    }

    #[test]
    fn repeated_labels_share_one_interned_allocation() {
        let mut b = EventBuffer::new();
        let ids: Vec<UnitId> = (0..4)
            .map(|g| b.unit(if g % 2 == 0 { "c0" } else { "c1" }, UnitKind::Layer))
            .collect();
        assert_eq!(ids, vec![UnitId(0), UnitId(1), UnitId(2), UnitId(3)]);
        // Same label -> same Arc, not a fresh String per registration.
        assert!(Arc::ptr_eq(&b.units()[0].name, &b.units()[2].name));
        assert!(Arc::ptr_eq(&b.units()[1].name, &b.units()[3].name));
        assert!(!Arc::ptr_eq(&b.units()[0].name, &b.units()[1].name));
        assert_eq!(b.unit_name(ids[2]), "c0");
    }

    #[test]
    fn hint_events_reserves_capacity() {
        let mut b = EventBuffer::with_capacity(2, 8);
        b.hint_events(100);
        let before = b.events.capacity();
        assert!(before >= 100);
        for t in 0..100u64 {
            b.emit(TraceEvent::Compute {
                unit: UnitId(0),
                t,
                cycles: 1,
                busy: 1.0,
                stalls: [0.0; 4],
            });
        }
        assert_eq!(b.events.capacity(), before);
        assert_eq!(b.len(), 100);
        // NullSink accepts hints and stays inert.
        NullSink.hint_events(1 << 20);
    }

    #[test]
    fn breakdowns_aggregate_per_unit() {
        let mut b = EventBuffer::new();
        let u = b.unit("conv1", UnitKind::Layer);
        let v = b.unit("conv2", UnitKind::Layer);
        for t in [0u64, 100] {
            b.emit(TraceEvent::Compute {
                unit: u,
                t,
                cycles: 100,
                busy: 60.0,
                stalls: [10.0, 0.0, 30.0, 0.0],
            });
        }
        b.emit(TraceEvent::Compute {
            unit: v,
            t: 0,
            cycles: 100,
            busy: 100.0,
            stalls: [0.0; 4],
        });
        let bd = b.breakdowns();
        assert_eq!(bd.len(), 2);
        assert_eq!(bd[0].cycles, 200);
        assert_eq!(bd[0].busy, 120.0);
        assert_eq!(bd[0].stalls[StallKind::InputStarved.index()], 20.0);
        assert_eq!(bd[0].stalls[StallKind::DramThrottled.index()], 60.0);
        assert_eq!(bd[0].accounted(), 200.0);
        assert_eq!(bd[1].cycles, 100);
        assert_eq!(bd[1].busy_frac(), 1.0);
    }

    #[test]
    fn dram_totals_sum_by_class() {
        let mut b = EventBuffer::new();
        let u = b.unit("conv1", UnitKind::Layer);
        emit_dram(&mut b, u, 0, 100, DramClass::WeightRead, 100.0, 80.0);
        emit_dram(&mut b, u, 100, 100, DramClass::WeightRead, 20.0, 20.0);
        emit_dram(&mut b, u, 0, 100, DramClass::ActivationRead, 50.0, 50.0);
        emit_dram(&mut b, u, 0, 100, DramClass::ActivationWrite, 30.0, 30.0);
        // Zero demand+grant events are dropped.
        emit_dram(&mut b, u, 0, 100, DramClass::ActivationWrite, 0.0, 0.0);
        let t = b.dram_totals();
        assert_eq!(t.granted(DramClass::WeightRead), 100.0);
        assert_eq!(t.demand(DramClass::WeightRead), 120.0);
        assert_eq!(t.granted(DramClass::ActivationRead), 50.0);
        assert_eq!(t.granted(DramClass::ActivationWrite), 30.0);
        assert_eq!(t.total_granted(), 180.0);
        assert_eq!(b.len(), 4);
    }
}
