//! Trace-replay transports: telemetry read from a recorded
//! [`ControlTrace`], actuation captured in memory for comparison.

use antidope::{
    ActuationTransport, ControlTrace, DecisionRecord, PlaneSample, SlotTick, TelemetryTransport,
    TransportError,
};
use simcore::SimTime;

/// Feeds the recorded per-slot [`PlaneSample`]s of a trace back to the
/// pipeline, one per tick, in recorded order. Each sample is moved out
/// to the pipeline, not cloned.
#[derive(Debug, Clone)]
pub struct ReplayTelemetry {
    slots: std::vec::IntoIter<(u64, PlaneSample)>,
}

impl ReplayTelemetry {
    /// Telemetry over the samples of `trace`.
    pub fn from_trace(trace: &ControlTrace) -> Self {
        let mut slots = Vec::with_capacity(trace.slots.len());
        slots.extend(trace.slots.iter().map(|s| (s.slot, s.sample.clone())));
        ReplayTelemetry { slots: slots.into_iter() }
    }
}

impl TelemetryTransport for ReplayTelemetry {
    fn sample(&mut self, tick: &SlotTick) -> Result<PlaneSample, TransportError> {
        let (slot, _) = self.slots.as_slice().first().ok_or(TransportError::Exhausted)?;
        if *slot != tick.slot {
            // The trace has no record for this tick — the clock and the
            // telemetry were built from different traces.
            return Err(TransportError::Malformed(format!(
                "trace slot {slot} does not match clock tick {}",
                tick.slot
            )));
        }
        let (_, sample) = self.slots.next().ok_or(TransportError::Exhausted)?;
        Ok(sample)
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
