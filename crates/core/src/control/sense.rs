//! **Sense** — telemetry acquisition (the inputs to the paper's power
//! monitor, Fig. 12).
//!
//! Reads per-node power each control slot. Without a fault layer there
//! are no per-node readings: the monitor judges the true aggregate;
//! with one, every live node's sensor is read through the fault layer's
//! per-shard plans, which may drop, freeze, lag, or perturb the
//! reading.
//!
//! The per-node readings vector is recycled between slots: the driver
//! hands it back through `SenseStage::recycle` once the downstream
//! stages are done with it, so steady-state slots perform no heap
//! allocation.

use super::FaultLayer;
use crate::node::ComputeNode;
use simcore::SimTime;

/// Telemetry-acquisition stage. Holds only a recycled readings buffer.
#[derive(Default)]
pub struct SenseStage {
    /// Readings buffer returned by [`Self::recycle`], reused next slot.
    scratch: Vec<Option<f64>>,
}

impl SenseStage {
    /// This slot's per-node sensed readings (`None` = the sensor
    /// produced nothing), collected only when `fault` is present;
    /// `None` as a whole keeps the fault-free path allocation-free.
    pub(crate) fn run(
        &mut self,
        now: SimTime,
        nodes: &[ComputeNode],
        node_dead: &[bool],
        fault: Option<&mut FaultLayer>,
    ) -> Option<Vec<Option<f64>>> {
        fault.map(|plan| {
            let mut buf = std::mem::take(&mut self.scratch);
            buf.clear();
            // Dead nodes report a true zero without consuming
            // fault-layer randomness, so the fault stream is stable
            // across different crash schedules.
            buf.extend(
                nodes
                    .iter()
                    .zip(node_dead.iter())
                    .enumerate()
                    .map(|(i, (n, &dead))| {
                        if dead {
                            Some(0.0)
                        } else {
                            plan.sense(now, i, n.power_w())
                        }
                    }),
            );
            buf
        })
    }

    /// Take the readings buffer back for reuse next slot. Dropping it
    /// instead is harmless — the next `run` simply reallocates.
    pub(crate) fn recycle(&mut self, readings: Option<Vec<Option<f64>>>) {
        if let Some(buf) = readings {
            self.scratch = buf;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::faults::{FaultConfig, ShardFaultPlan};
    use simcore::rng::RngFactory;
    use simcore::SimDuration;

    #[test]
    fn fault_free_sense_carries_no_readings_vector() {
        let nodes = vec![ComputeNode::new(SimTime::ZERO, 4, 32, SimDuration::from_secs(1))];
        let mut stage = SenseStage::default();
        let readings = stage.run(SimTime::from_secs(1), &nodes, &[false], None);
        assert!(readings.is_none(), "no fault layer, no allocation");
    }

    #[test]
    fn readings_buffer_is_reused_across_slots() {
        let n = 8;
        let nodes: Vec<ComputeNode> = (0..n)
            .map(|_| ComputeNode::new(SimTime::ZERO, 4, 32, SimDuration::from_secs(1)))
            .collect();
        let node_dead = vec![false; n];
        let mut plan = FaultLayer::new(
            ShardFaultPlan::new(FaultConfig::default(), n, &RngFactory::new(3)).unwrap(),
        );
        let mut stage = SenseStage::default();
        let readings = stage.run(SimTime::from_secs(1), &nodes, &node_dead, Some(&mut plan));
        let ptr = readings.as_ref().expect("fault layer present").as_ptr();
        stage.recycle(readings);
        for s in 2..10u64 {
            let readings = stage.run(SimTime::from_secs(s), &nodes, &node_dead, Some(&mut plan));
            let buf = readings.as_ref().expect("fault layer present");
            assert_eq!(buf.len(), n);
            assert_eq!(buf.as_ptr(), ptr, "slot {s} reallocated the recycled readings buffer");
            stage.recycle(readings);
        }
    }
}
