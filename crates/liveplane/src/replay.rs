//! Trace-replay transports: telemetry read from a recorded
//! [`ControlTrace`], actuation captured in memory for comparison.

use antidope::{
    ActuationTransport, ControlTrace, DecisionRecord, PlaneSample, SlotRecord, SlotTick,
    TelemetryTransport, TransportError,
};
use simcore::SimTime;

/// Feeds the recorded per-slot [`PlaneSample`]s of a trace back to the
/// pipeline, one per tick, in recorded order. The trace is borrowed,
/// and each `sample` call lends the recorded sample itself: no copy is
/// made.
#[derive(Debug, Clone)]
pub struct ReplayTelemetry<'a> {
    slots: std::slice::Iter<'a, SlotRecord>,
}

impl<'a> ReplayTelemetry<'a> {
    /// Telemetry over the samples of `trace`.
    pub fn from_trace(trace: &'a ControlTrace) -> Self {
        ReplayTelemetry { slots: trace.slots.iter() }
    }
}

impl<'a> TelemetryTransport for ReplayTelemetry<'a> {
    type Sample = &'a PlaneSample;

    fn sample(&mut self, tick: &SlotTick) -> Result<&'a PlaneSample, TransportError> {
        let record = self.slots.as_slice().first().ok_or(TransportError::Exhausted)?;
        if record.slot != tick.slot {
            // The trace has no record for this tick — the clock and the
            // telemetry were built from different traces.
            return Err(TransportError::Malformed(format!(
                "trace slot {} does not match clock tick {}",
                record.slot, tick.slot
            )));
        }
        self.slots.next();
        Ok(&record.sample)
    }
}

/// Captures every applied decision in memory — the replay side's
/// "actuator", letting the parity harness byte-compare the emitted
/// command sequence against the sim's recorded one.
#[derive(Debug, Clone, Default)]
pub struct RecordingActuation {
    /// `(slot timestamp, decision)` in application order.
    pub applied: Vec<(SimTime, DecisionRecord)>,
}

impl RecordingActuation {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ActuationTransport for RecordingActuation {
    fn apply(&mut self, now: SimTime, decision: &DecisionRecord) -> Result<(), TransportError> {
        self.applied.push((now, decision.clone()));
        Ok(())
    }
}

/// Discards every decision — for daemon runs where only the summary
/// matters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullActuation;

impl ActuationTransport for NullActuation {
    fn apply(&mut self, _now: SimTime, _decision: &DecisionRecord) -> Result<(), TransportError> {
        Ok(())
    }
}
