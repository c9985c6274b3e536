//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host.  On the 2-core
//! container it was sized on, the same single-threaded op ran anywhere from
//! 67 to 130 ms over tens of minutes, in phases of seconds to minutes,
//! with no other load in the container: the host's other tenants set the
//! speed.  A run of 25 s cannot average that out, so two runs of the same
//! code could differ by half.
//!
//! A fixed kernel, [`kernel`], that calls no library code is timed on the
//! op's own thread right before every op.  An op's latency is reported at
//! the kernel's reference speed: its wall time scaled by [`REF_MS`] over the
//! median kernel time of the ops around it.  The kernel mixes what the
//! workloads compute (small allocations, hashing, a vector written cell by
//! cell, hash-map probes), so it slows down with them; a change to the
//! library leaves it untouched and shows in full.  It tracks socket and
//! thread hand-offs less well than computation, which matters only for
//! `served_small`.  Wall-clock figures are printed on stderr beside the
//! calibrated ones.

use std::collections::HashMap;
use std::time::Instant;

use crate::median;

/// The kernel's time, in ms, at the reference speed the calibrated
/// figures are expressed in (about its time on the 2-core container the
/// benchmark was sized on, in a calm period).
pub const REF_MS: f64 = 1.5;
/// An op is scaled by the median kernel time of this many ops on either
/// side of it (and itself), so one slow kernel sample does not move it.
const WINDOW: usize = 4;

/// A fixed deterministic workload: a cell-by-cell vector over a 4-attribute
/// odometer whose weights hash freshly allocated projections (as a query
/// weight vector does), then random probes into a hash map.
pub fn kernel() -> f64 {
    const DIMS: [u64; 4] = [12, 32, 8, 8];
    const KEYS: u64 = 8192;
    const PROBES: usize = 60_000;
    let cells: u64 = DIMS.iter().product();
    let sign = |values: &[u64], seed: u64| -> f64 {
        let mut h = seed;
        for &x in values {
            h = (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
        }
        if h & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    };
    let mut weights: Vec<f64> = Vec::with_capacity(cells as usize);
    let mut tuple = [0u64; 4];
    for _ in 0..cells {
        let mut w = 1.0;
        for other in 1..DIMS.len() {
            let projected = vec![tuple[0], tuple[other]];
            w *= sign(&projected, other as u64);
        }
        weights.push(w);
        for pos in (0..DIMS.len()).rev() {
            tuple[pos] += 1;
            if tuple[pos] < DIMS[pos] {
                break;
            }
            tuple[pos] = 0;
        }
    }
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(KEYS as usize);
    for k in 0..KEYS {
        map.insert(next() % 50_000, k);
    }
    let mut acc: f64 = weights.iter().sum();
    for _ in 0..PROBES {
        if let Some(v) = map.get(&(next() % 50_000)) {
            acc += *v as f64;
        }
    }
    acc
}

/// One timed run of [`kernel`], in ms.
pub fn sample_ms() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// `lat_ms[k]` at the reference speed: scaled by [`REF_MS`] over the median
/// of `cal_ms` within [`WINDOW`] ops of `k`.  Failed (infinite) ops stay
/// infinite.
pub fn calibrate(lat_ms: &[f64], cal_ms: &[f64]) -> Vec<f64> {
    debug_assert_eq!(lat_ms.len(), cal_ms.len());
    (0..lat_ms.len())
        .map(|k| {
            let lo = k.saturating_sub(WINDOW);
            let hi = (k + WINDOW + 1).min(cal_ms.len());
            lat_ms[k] * REF_MS / median(&cal_ms[lo..hi])
        })
        .collect()
}
