//! The live control-plane host: a tick loop that runs the engine's own
//! slot function over each sample ([`ControlPipeline::run_sample`]),
//! from a [`ControlClock`] and a pair of transports, with last-good
//! staleness bridging and graceful shutdown.

use antidope::health::staleness::LastGood;
use antidope::{
    ActuationTransport, ClusterConfig, ClusterView, ControlClock, ControlPipeline,
    DecisionRecord, ExperimentConfig, Forget, PlaneSample, SlotTick, TelemetryTransport,
    TraceFooter, TransportError,
};
use powercap::monitor::PowerCondition;
use profiler::ProfilerReport;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How one slot was fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotDisposition {
    /// Fresh telemetry arrived and drove the pass.
    Fresh,
    /// Telemetry was stale; the pass ran on the held last-good sample
    /// (within the staleness window).
    Bridged,
    /// Telemetry was stale beyond the window: the pass was skipped
    /// entirely and nothing was actuated.
    Blind,
}

/// One processed tick: what fed it and what the pipeline emitted.
/// `view`/`decisions` are `None` exactly for [`SlotDisposition::Blind`]
/// slots.
#[derive(Debug, Clone)]
pub struct SlotOutcome {
    /// The clock tick.
    pub tick: SlotTick,
    /// How the slot was fed.
    pub disposition: SlotDisposition,
    /// Filter-stage output, when the pass ran.
    pub view: Option<ClusterView>,
    /// Sweep + Decide output, when the pass ran.
    pub decisions: Option<DecisionRecord>,
}

/// End-of-run accounting, shaped to compare directly against a recorded
/// trace's [`TraceFooter`] via [`LiveSummary::footer`].
#[derive(Debug, Clone)]
pub struct LiveSummary {
    /// Pipeline passes executed (fresh + bridged).
    pub slots: u64,
    /// Passes that ran on a held last-good sample.
    pub bridged_slots: u64,
    /// Ticks skipped because staleness exceeded the window.
    pub blind_slots: u64,
    /// Ticks the clock flagged as past their deadline.
    pub missed_deadlines: u64,
    /// Actions emitted across all passes.
    pub actions: u64,
    /// Read-back retries emitted across all passes.
    pub retries: u64,
    /// Passes the monitor judged `Emergency`.
    pub emergency_slots: u64,
    /// Passes with the coverage watchdog engaged.
    pub watchdog_slots: u64,
    /// Last telemetry energy counter seen, joules.
    pub energy_j: f64,
    /// Peak true aggregate power seen, watts.
    pub peak_true_w: f64,
    /// Final profiler accounting, when the experiment enables EW-RLS
    /// attribution.
    pub profiler: Option<ProfilerReport>,
    /// Every processed tick in order.
    pub journal: Vec<SlotOutcome>,
}

impl LiveSummary {
    /// The summary in trace-footer form. For a replay of a recorded
    /// trace the result must be byte-identical (Debug-render equal) to
    /// the trace's own footer — that is the parity criterion.
    pub fn footer(&self) -> TraceFooter {
        TraceFooter {
            slots: self.slots,
            actions: self.actions,
            retries: self.retries,
            emergency_slots: self.emergency_slots,
            watchdog_slots: self.watchdog_slots,
            energy_j: self.energy_j,
            peak_true_w: self.peak_true_w,
        }
    }
}

/// The live daemon: clock + telemetry + actuation around the
/// [`ControlPipeline`] the engine builds for the same experiment, run
/// through the engine's own slot function. A fresh sample that does
/// not fit the experiment ([`PlaneSample::check_shape`]) is a
/// [`TransportError::Malformed`], not a panic.
///
/// Staleness handling: every fresh sample is also held, as the
/// transport handed it out (a sample it lent, or one it gave away), in
/// a [`LastGood`] hold whose window is the experiment's
/// `control_slot × telemetry_staleness_slots`. A stale tick within the
/// window re-runs the pass on the held sample with no forget events,
/// so a slot's forgets are applied by its fresh pass and never again;
/// past the window the tick is skipped as blind — the same boundary the
/// in-pipeline [`antidope::TelemetryHealth`] applies per node.
pub struct LiveDaemon<C, T: TelemetryTransport, A> {
    cfg: ClusterConfig,
    clock: C,
    telemetry: T,
    actuation: A,
    pipeline: ControlPipeline,
    hold: LastGood<T::Sample>,
    shutdown: Arc<AtomicBool>,
    journal: Vec<SlotOutcome>,
    slots: u64,
    bridged_slots: u64,
    blind_slots: u64,
    missed_deadlines: u64,
    actions: u64,
    retries: u64,
    emergency_slots: u64,
    watchdog_slots: u64,
    energy_j: f64,
    peak_true_w: f64,
}

impl<C, T, A> LiveDaemon<C, T, A>
where
    C: ControlClock,
    T: TelemetryTransport,
    A: ActuationTransport,
{
    /// A daemon for `exp`, assembling the pipeline exactly as the
    /// engine would.
    pub fn new(exp: &ExperimentConfig, clock: C, telemetry: T, actuation: A) -> Self {
        let pipeline = ControlPipeline::for_experiment(exp);
        let cfg = exp.cluster.clone();
        let window = cfg.control_slot * cfg.control.telemetry_staleness_slots;
        LiveDaemon {
            clock,
            telemetry,
            actuation,
            pipeline,
            hold: LastGood::new(1, window),
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
            journal: Vec::new(),
            slots: 0,
            bridged_slots: 0,
            blind_slots: 0,
            missed_deadlines: 0,
            actions: 0,
            retries: 0,
            emergency_slots: 0,
            watchdog_slots: 0,
            energy_j: 0.0,
            peak_true_w: 0.0,
        }
    }

    /// Flag that stops the loop before the next tick (set it from a
    /// signal handler or another thread for graceful shutdown).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The actuation transport (e.g. to inspect a recorded command
    /// sequence after the run).
    pub fn actuation(&self) -> &A {
        &self.actuation
    }

    /// Process one tick. `Ok(None)` means the run is over: the clock's
    /// schedule is exhausted, the telemetry source ended
    /// ([`TransportError::Exhausted`]), or shutdown was requested.
    /// I/O and malformed-data transport errors propagate.
    pub fn step(&mut self) -> Result<Option<SlotOutcome>, TransportError> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let Some(tick) = self.clock.next_slot() else {
            return Ok(None);
        };
        if tick.missed_deadline {
            self.missed_deadlines += 1;
        }
        let fresh = match self.telemetry.sample(&tick) {
            Ok(s) => Some(s),
            Err(TransportError::Stale { .. }) => None,
            Err(TransportError::Exhausted) => return Ok(None),
            Err(e) => return Err(e),
        };
        let (sample, forgets, disposition): (&PlaneSample, &[Forget], _) = match &fresh {
            Some(s) => {
                let s: &PlaneSample = s.borrow();
                s.check_shape(&self.cfg).map_err(TransportError::Malformed)?;
                (s, &s.forgets, SlotDisposition::Fresh)
            }
            // A bridged pass re-runs the held sample without its
            // forgets: the fresh pass consumed them.
            None => match self.hold.get(0, tick.now) {
                Some(held) => (held.borrow(), &[], SlotDisposition::Bridged),
                None => {
                    self.blind_slots += 1;
                    let out = SlotOutcome {
                        tick,
                        disposition: SlotDisposition::Blind,
                        view: None,
                        decisions: None,
                    };
                    self.journal.push(out.clone());
                    return Ok(Some(out));
                }
            },
        };
        let (view, decisions) = self.pipeline.run_sample(tick.now, &self.cfg, sample, forgets);
        let (energy_j, true_power_w) = (sample.energy_j, sample.true_power_w);
        if let Some(held) = fresh {
            self.hold.update(0, tick.now, held);
        }
        self.actuation.apply(tick.now, &decisions)?;
        self.slots += 1;
        if disposition == SlotDisposition::Bridged {
            self.bridged_slots += 1;
        }
        self.actions += decisions.actions.len() as u64;
        self.retries += decisions.retries.len() as u64;
        if view.condition == PowerCondition::Emergency {
            self.emergency_slots += 1;
        }
        if view.watchdog_engaged {
            self.watchdog_slots += 1;
        }
        self.energy_j = energy_j;
        self.peak_true_w = self.peak_true_w.max(true_power_w);
        let out = SlotOutcome {
            tick,
            disposition,
            view: Some(view),
            decisions: Some(decisions),
        };
        self.journal.push(out.clone());
        Ok(Some(out))
    }

    /// Run the tick loop to completion and return the summary. The
    /// journal moves into the summary (a daemon is single-shot).
    pub fn run(&mut self) -> Result<LiveSummary, TransportError> {
        while self.step()?.is_some() {}
        Ok(self.summary())
    }

    /// The accounting summary, draining the journal.
    pub fn summary(&mut self) -> LiveSummary {
        LiveSummary {
            slots: self.slots,
            bridged_slots: self.bridged_slots,
            blind_slots: self.blind_slots,
            missed_deadlines: self.missed_deadlines,
            actions: self.actions,
            retries: self.retries,
            emergency_slots: self.emergency_slots,
            watchdog_slots: self.watchdog_slots,
            energy_j: self.energy_j,
            peak_true_w: self.peak_true_w,
            profiler: self.pipeline.profiler_report(),
            journal: std::mem::take(&mut self.journal),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_footer_maps_the_trace_footer_fields() {
        let s = LiveSummary {
            slots: 7,
            bridged_slots: 1,
            blind_slots: 2,
            missed_deadlines: 3,
            actions: 40,
            retries: 5,
            emergency_slots: 6,
            watchdog_slots: 2,
            energy_j: 123.5,
            peak_true_w: 9000.25,
            profiler: None,
            journal: Vec::new(),
        };
        let f = s.footer();
        assert_eq!(
            (f.slots, f.actions, f.retries, f.emergency_slots, f.watchdog_slots),
            (7, 40, 5, 6, 2)
        );
        assert_eq!((f.energy_j, f.peak_true_w), (123.5, 9000.25));
    }
}
