//! α–β cost models for the collective operations the in situ analyses
//! issue. `α` is the per-message latency, `β = 1/bw` the per-byte cost;
//! stage counts follow the classic tree/ring algorithms (the same ones
//! `minimpi` actually implements, keeping real and modeled modes
//! structurally aligned).

use crate::machine::MachineSpec;
use crate::stages;

/// One point-to-point message of `bytes`.
pub fn p2p(m: &MachineSpec, bytes: f64) -> f64 {
    m.net_alpha + bytes / m.net_bw
}

/// Dissemination barrier: ⌈log₂ p⌉ rounds of small messages.
pub fn barrier(m: &MachineSpec, p: usize) -> f64 {
    stages(p) * (m.net_alpha + 64.0 / m.net_bw)
}

/// Binomial-tree broadcast of `bytes` to `p` ranks.
pub fn bcast(m: &MachineSpec, p: usize, bytes: f64) -> f64 {
    stages(p) * p2p(m, bytes)
}

/// Binomial-tree reduction of `bytes` with per-byte combine cost folded
/// into an effective 2× byte term (receive + combine).
pub fn reduce(m: &MachineSpec, p: usize, bytes: f64) -> f64 {
    stages(p) * (m.net_alpha + 2.0 * bytes / m.net_bw)
}

/// Reduce-then-broadcast allreduce (the BSP pattern of the analyses; the
/// paper's Fig. 12 discussion calls out the final-reduction weak-scaling
/// cost of exactly this shape).
pub fn allreduce(m: &MachineSpec, p: usize, bytes: f64) -> f64 {
    reduce(m, p, bytes) + bcast(m, p, bytes)
}

/// Flat gather of `bytes_per_rank` from `p` ranks to a root: the root's
/// ingest serializes on its link.
pub fn gather(m: &MachineSpec, p: usize, bytes_per_rank: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    m.net_alpha * stages(p) + (p as f64 - 1.0) * bytes_per_rank / m.net_bw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cori() -> MachineSpec {
        MachineSpec::cori_haswell()
    }

    #[test]
    fn p2p_scales_with_bytes() {
        let m = cori();
        assert!(p2p(&m, 1e9) > p2p(&m, 1e3));
        assert!((p2p(&m, 0.0) - m.net_alpha).abs() < 1e-15);
    }

    #[test]
    fn collectives_grow_logarithmically() {
        let m = cori();
        let t1k = allreduce(&m, 1024, 8.0);
        let t1m = allreduce(&m, 1 << 20, 8.0);
        // 2× the stages, not 1024× the time.
        assert!(t1m / t1k < 2.2, "ratio {}", t1m / t1k);
        assert!(t1m > t1k);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let m = cori();
        assert_eq!(barrier(&m, 1), 0.0);
        assert_eq!(bcast(&m, 1, 1e6), 0.0);
        assert_eq!(gather(&m, 1, 1e6), 0.0);
    }

    #[test]
    fn gather_is_root_bound() {
        let m = cori();
        // Doubling ranks nearly doubles root ingest time for fixed
        // per-rank bytes.
        let a = gather(&m, 1000, 1e6);
        let b = gather(&m, 2000, 1e6);
        assert!(b / a > 1.8 && b / a < 2.2, "ratio {}", b / a);
    }

    #[test]
    fn allreduce_exceeds_reduce() {
        let m = cori();
        assert!(allreduce(&m, 4096, 1e4) > reduce(&m, 4096, 1e4));
    }
}
