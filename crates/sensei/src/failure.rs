//! Unified non-fatal failure reporting.
//!
//! Before this module every degraded-pipeline event had its own shape:
//! the FlexPath reader's dead-writer record, GLEAN's dead node members
//! and slow drains, and free-form strings from analyses. They all
//! funnel into one [`FailureReport`] enum behind
//! [`Bridge::failure_reports`], so every consumer — tests, the
//! `RunReport` JSON, live monitors — sees a single machine-readable
//! shape with a `kind` tag, while `From` impls in the endpoint crates
//! keep call sites as small as `bridge.record_failure(lost)`.
//!
//! [`Bridge::failure_reports`]: crate::bridge::Bridge::failure_reports

use std::time::Duration;

/// One non-fatal infrastructure failure. The run continues past any of
/// these; surfacing them is what keeps a degraded pipeline from being
/// mistaken for a healthy one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureReport {
    /// A staging writer went silent mid-stream (FlexPath reader side):
    /// its stream was drained to end-of-stream instead of hanging the
    /// endpoint.
    DeadWriter {
        /// World rank of the lost writer.
        rank: usize,
        /// Steps fully received before the loss.
        steps_received: u64,
        /// Payload bytes received before the loss.
        bytes_received: u64,
        /// How long the reader waited before declaring it dead.
        waited: Duration,
    },
    /// A staging writer sent a frame that does not decode (FlexPath
    /// reader side): its link was dropped like a lost writer's and the
    /// other writers were served as before.
    CorruptFrame {
        /// World rank of the writer.
        rank: usize,
        /// Steps fully received before the bad frame.
        steps_received: u64,
        /// Payload bytes received before the bad frame.
        bytes_received: u64,
        /// Why the frame was rejected.
        reason: String,
    },
    /// A node member never delivered its block within the aggregation
    /// deadline (GLEAN): the aggregator proceeds without it.
    DeadMember {
        /// World rank of the silent member.
        rank: usize,
        /// Steps received from it before it went silent.
        steps_received: u64,
        /// How long the aggregator waited before declaring it dead.
        waited: Duration,
    },
    /// A GLEAN aggregator's drain thread kept its queue full for the
    /// whole drain deadline: the aggregator stopped handing it node
    /// steps so the simulation could go on, and the aggregator's file
    /// ends at the steps queued before.
    SlowDrain {
        /// World rank of the aggregator.
        aggregator: usize,
        /// Node steps handed to the drain before it was cut off.
        steps_queued: u64,
        /// How long the aggregator waited for a queue slot.
        waited: Duration,
    },
    /// An analysis adaptor reported a failure string through
    /// `AnalysisAdaptor::take_failures`.
    Analysis {
        /// Name of the reporting analysis.
        analysis: String,
        /// Its failure description.
        detail: String,
    },
    /// Anything else (free-form `record_failure` strings).
    Other {
        /// Failure description.
        detail: String,
    },
}

impl FailureReport {
    /// Machine-readable kind tag, stable across releases (the `kind`
    /// field of the RunReport JSON failure entries).
    pub fn kind(&self) -> &'static str {
        match self {
            FailureReport::DeadWriter { .. } => "dead-writer",
            FailureReport::CorruptFrame { .. } => "corrupt-frame",
            FailureReport::DeadMember { .. } => "dead-member",
            FailureReport::SlowDrain { .. } => "slow-drain",
            FailureReport::Analysis { .. } => "analysis",
            FailureReport::Other { .. } => "other",
        }
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReport::DeadWriter {
                rank,
                steps_received,
                bytes_received,
                waited,
            } => write!(
                f,
                "writer rank {rank} lost in transit after {steps_received} step(s) / \
                 {bytes_received} payload byte(s) received (no frame within {waited:?}); \
                 its stream was drained to end-of-stream"
            ),
            FailureReport::CorruptFrame {
                rank,
                steps_received,
                bytes_received,
                reason,
            } => write!(
                f,
                "writer rank {rank} dropped after {steps_received} step(s) / \
                 {bytes_received} payload byte(s) received: its next frame did not decode \
                 ({reason})"
            ),
            FailureReport::DeadMember {
                rank,
                steps_received,
                waited,
            } => write!(
                f,
                "node member rank {rank} lost after {steps_received} step(s) (no block \
                 within {waited:?}); aggregating without it"
            ),
            FailureReport::SlowDrain {
                aggregator,
                steps_queued,
                waited,
            } => write!(
                f,
                "drain of aggregator rank {aggregator} cut off after {steps_queued} node \
                 step(s): its queue stayed full for {waited:?}; later steps are not persisted"
            ),
            FailureReport::Analysis { analysis, detail } => write!(f, "{analysis}: {detail}"),
            FailureReport::Other { detail } => f.write_str(detail),
        }
    }
}

impl From<String> for FailureReport {
    fn from(detail: String) -> Self {
        FailureReport::Other { detail }
    }
}

impl From<&str> for FailureReport {
    fn from(detail: &str) -> Self {
        FailureReport::Other {
            detail: detail.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let reports = [
            FailureReport::DeadWriter {
                rank: 3,
                steps_received: 2,
                bytes_received: 640,
                waited: Duration::from_millis(150),
            },
            FailureReport::CorruptFrame {
                rank: 0,
                steps_received: 1,
                bytes_received: 320,
                reason: "corrupt BP data: bad magic".into(),
            },
            FailureReport::DeadMember {
                rank: 5,
                steps_received: 1,
                waited: Duration::from_millis(50),
            },
            FailureReport::SlowDrain {
                aggregator: 4,
                steps_queued: 8,
                waited: Duration::from_millis(20),
            },
            FailureReport::Analysis {
                analysis: "histogram".into(),
                detail: "unknown point array 'data'".into(),
            },
            FailureReport::Other {
                detail: "free-form".into(),
            },
        ];
        let kinds: Vec<&str> = reports.iter().map(|r| r.kind()).collect();
        assert_eq!(
            kinds,
            [
                "dead-writer",
                "corrupt-frame",
                "dead-member",
                "slow-drain",
                "analysis",
                "other"
            ]
        );
    }

    #[test]
    fn descriptions_carry_the_forensics() {
        let r = FailureReport::DeadWriter {
            rank: 0,
            steps_received: 2,
            bytes_received: 96,
            waited: Duration::from_millis(150),
        };
        let s = r.to_string();
        assert!(s.contains("writer rank 0"), "{s}");
        assert!(s.contains("2 step(s)"), "{s}");
        assert!(s.contains("end-of-stream"), "{s}");
    }

    #[test]
    fn strings_convert_to_other() {
        let r: FailureReport = "drain thread panicked".into();
        assert_eq!(r.kind(), "other");
        assert_eq!(r.to_string(), "drain thread panicked");
    }
}
