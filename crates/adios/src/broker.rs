//! The staging endpoint's tee: every step the endpoint receives is
//! also handed to a [`StagingBroker`].
//!
//! The paper's in transit path (§4.1.4, Fig. 2) is one writer group and
//! one endpoint group; nothing in it consumes a second copy of the
//! stream. The tee therefore has no subscribers to deliver to, and a
//! publish does nothing. It stays only because the benchmark names it
//! beside [`crate::staging::run_endpoint_with_broker`].

use crate::bp::BpStep;

/// The tee's settings. It has no queues to size and no consumers to
/// admit or evict, so there is nothing to set.
#[derive(Clone, Copy, Debug, Default)]
pub struct BrokerConfig {}

/// The tee a staging endpoint publishes each received step to.
#[derive(Debug, Default)]
pub struct StagingBroker {}

impl StagingBroker {
    /// The tee.
    pub fn new(_config: BrokerConfig) -> Self {
        StagingBroker {}
    }

    /// Publish one received step: there is no subscriber to deliver
    /// it to, so nothing is copied and no heap call made
    /// (`tests/golden/counts.tsv` counts a staging round's).
    pub fn publish_step(&self, _step: &BpStep) {}
}
