//! Residual sensitivity `RS^β_count(I)` (Definition 3.6, after Dong & Yi
//! [15, 16]).
//!
//! ```text
//! RS^β(I)   = max_{k ≥ 0} e^{-βk} · L̂S^k(I)
//! L̂S^k(I)  = max_{s ∈ S_k} max_{i ∈ [m]} Σ_{E ⊆ [m]∖{i}} T_{([m]∖{i})∖E}(I) · Π_{j∈E} s_j
//! ```
//!
//! where `S_k` is the set of non-negative integer vectors summing to `k` and
//! `T_F` are the maximum boundary queries of Equation (1).  `L̂S^k` is the
//! maximum local sensitivity over instances at distance ≤ `k` from `I`, so
//! `RS^β` is a β-smooth upper bound on the local sensitivity; unlike smooth
//! sensitivity it is computable in polynomial time (the `T_F` are joins and
//! `m` is a constant).
//!
//! ### How the maximisation is carried out
//!
//! Writing `k = Σ_j s_j`, the objective
//! `e^{-βΣ_j s_j} · Σ_E T_{O_i∖E} Π_{j∈E} s_j` factors per coordinate into
//! `s_j e^{-β s_j}` (for `j ∈ E`) or `e^{-β s_j}` (for `j ∉ E`).  Both factors
//! are non-increasing in `s_j` beyond `1/β`, so no coordinate of an optimal
//! `s` ever needs to exceed `s_cap = ⌈1/β⌉`.  The maximum is defined over
//! the box `{0, …, s_cap}^{m-1}` (per excluded relation `i`), scanned in
//! *odometer order* — `s_0` fastest — with a point replacing the best only
//! when strictly greater; that order fixes which `(i, k)` a tie reports.
//!
//! The scan does not visit the whole box.  The `T_F` go into one dense table
//! indexed by relation mask, built once and shared by the `m` outer
//! relations, and each relation reads it through a `2^{m-1}`-entry table
//! indexed by `E`, so the inner sum is an allocation-free loop.  With
//! `s_1, …, s_{m-2}` fixed (`K` their sum), the inner sum is `a + b·s_0`
//! with `a, b ≥ 0`, and `f(x) = e^{-β(K+x)}(a + b·x)` is log-concave with
//! its real maximum at `x* = 1/β − a/b` (at 0 when `b = 0`), clipped to
//! `[0, s_cap]`.  Only the integers in `[⌊x*⌋−1, ⌈x*⌉+1] ∩ [0, s_cap]`
//! are evaluated, in ascending order, with the odometer's own float
//! expression and update rule:
//!
//! * **±1 window.**  In exact arithmetic the best integer is `⌊x*⌋` or
//!   `⌈x*⌉`.  `(log f)'' = −b²/(a+bx)²` is at most `−β²` left of `x*` and at
//!   most about `−β²/4` right of it (`x ≤ s_cap ≈ 1/β`), so every integer
//!   outside the window is worse than one inside by a relative gap of order
//!   `β²` — about 10⁻⁷ at the hierarchical per-part `β = 1/887`, some eight
//!   orders of magnitude above the rounding of a `2^{m-1}`-term f64 sum.  The extra integer on
//!   each side absorbs the rounding of `x*` itself.  For `β` so small that
//!   `β²` nears the f64 epsilon (below ~10⁻⁶) the value stays within
//!   rounding of the exact maximum, but bit-identity with the full sweep is
//!   no longer argued — a sweep that could not finish anyway.
//! * **Tie-breaks.**  Rows `(s_1, …)` are walked in odometer order and each
//!   window in ascending `s_0`, so the evaluated points are a subsequence of
//!   the odometer sequence.  Every skipped point is strictly below a point
//!   of its own row, hence below the maximum, so the first point attaining
//!   the maximum — the one the full sweep reports — is evaluated, and
//!   nothing before it in the sequence ties it.
//!
//! This removes one `s_cap` factor: `(s_cap+1)^{m-2}` rows of at most four
//! points each, instead of `(s_cap+1)^{m-1}` points.  The full sweep is
//! kept only as the unit tests' oracle, which checks value bits, relation
//! and distance on randomized tables.

use std::collections::BTreeMap;

use dpsyn_relational::{Instance, JoinQuery};

use crate::context_ext::SensitivityOps;
use crate::error::SensitivityError;
use crate::settings::SensitivityConfig;
use crate::Result;

/// The result of a residual-sensitivity computation, retaining the
/// intermediate boundary-query values for inspection and testing.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualSensitivity {
    /// The smoothing parameter β used.
    pub beta: f64,
    /// The value `RS^β_count(I)`.
    pub value: f64,
    /// The relation index `i` attaining the outer maximum.
    pub maximizing_relation: usize,
    /// The distance `k = Σ_j s_j` at which the maximum is attained.
    pub maximizing_distance: u64,
    /// All maximum boundary-query values `T_F(I)` for proper subsets
    /// `F ⊊ [m]`, keyed by the sorted subset.
    pub boundary_values: BTreeMap<Vec<usize>, u128>,
}

impl ResidualSensitivity {
    /// The boundary-query value `T_F(I)` for a proper subset `F` (1 for the
    /// empty subset by convention).
    pub fn boundary_value(&self, f: &[usize]) -> Option<u128> {
        if f.is_empty() {
            Some(1)
        } else {
            self.boundary_values.get(f).copied()
        }
    }
}

pub(crate) fn check_beta(beta: f64) -> Result<()> {
    if beta.is_nan() || beta <= 0.0 || beta.is_infinite() {
        return Err(SensitivityError::InvalidParameter {
            name: "beta",
            value: beta,
            constraint: "0 < beta < ∞",
        });
    }
    Ok(())
}

/// Precomputes `T_F(I)` for every proper subset `F ⊊ [m]`, keyed by the sorted
/// subset (the empty subset maps to 1), at the default execution settings
/// (see [`SensitivityOps::all_boundary_values`]).  Builds a throwaway
/// context per call; hold an [`dpsyn_relational::ExecContext`] (or a
/// `dpsyn::Session`) to reuse the sub-join lattice across calls.
pub fn all_boundary_values(
    query: &JoinQuery,
    instance: &Instance,
) -> Result<BTreeMap<Vec<usize>, u128>> {
    SensitivityConfig::default()
        .to_context()
        .all_boundary_values(query, instance)
}

/// `T_F(I)` for every proper subset `F ⊊ [m]` as one dense table indexed by
/// relation mask (bit `r` set ⇔ `r ∈ F`), converted to `f64` once.
/// `T_∅ = 1` by convention whatever `boundary_values` holds for `[]`; a
/// subset absent from the map reads as 0, and so does the full mask, which
/// no inner sum ever reads.
pub(crate) fn boundary_table(m: usize, boundary_values: &BTreeMap<Vec<usize>, u128>) -> Vec<f64> {
    let mut table = vec![0.0f64; 1 << m];
    for (f, &value) in boundary_values {
        let mask = f.iter().fold(0usize, |mask, &r| mask | (1 << r));
        table[mask] = value as f64;
    }
    table[0] = 1.0;
    table
}

/// The per-relation table of the inner sum for excluded relation `i`: entry
/// `E` (a mask over the positions of `O_i = [m]∖{i}`, in ascending relation
/// order) is `T_{O_i∖E}`.  Its length is `2^{m-1}`.
pub(crate) fn exclusion_table(table: &[f64], m: usize, i: usize) -> Vec<f64> {
    let others: Vec<usize> = (0..m).filter(|&j| j != i).collect();
    let others_mask = ((1usize << m) - 1) & !(1 << i);
    (0..1usize << others.len())
        .map(|e| {
            let removed = others
                .iter()
                .enumerate()
                .filter(|&(bit, _)| e & (1 << bit) != 0)
                .fold(0usize, |mask, (_, &r)| mask | (1 << r));
            table[others_mask & !removed]
        })
        .collect()
}

/// Evaluates `Σ_{E ⊆ O} T_{O∖E} Π_{j∈E} s_j` for an exclusion table `t`
/// (see [`exclusion_table`]) and assignment `s` aligned with `O`.  Products
/// multiply in ascending bit order, a zero product skips its term, and terms
/// add in mask order — the summation order every maximiser relies on for
/// bit-identical results.
fn inner_sum(t: &[f64], s: &[f64]) -> f64 {
    let mut total = 0.0;
    for (mask, &t) in t.iter().enumerate() {
        let mut product = 1.0f64;
        let mut bits = mask;
        while bits != 0 {
            product *= s[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        if product == 0.0 && mask != 0 {
            continue;
        }
        total += product * t;
    }
    total
}

/// The inner sum as `a + b·s_0` for the current `s[1..]`: `a` collects the
/// terms without `s_0`, `b` the coefficients of `s_0`.  Only used to locate
/// the real maximiser, so its rounding does not reach any result.
fn linear_in_first(t: &[f64], s: &[f64]) -> (f64, f64) {
    let (mut a, mut b) = (0.0f64, 0.0f64);
    for (mask, &t) in t.iter().enumerate() {
        let mut product = t;
        let mut bits = mask >> 1;
        while bits != 0 {
            product *= s[1 + bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        if mask & 1 == 0 {
            a += product;
        } else {
            b += product;
        }
    }
    (a, b)
}

/// Maximises `e^{-βk}·Σ_E T_{O_i∖E}·Πs_j` over `s ∈ {0..=s_cap}^{m-1}` for
/// the exclusion table `t` of one relation `i`, returning the best value and
/// its distance `k`.  Walks `s[1..]` in odometer order and, per row, only the
/// window of `s[0]` around the row's real maximiser (see the module docs), so
/// the result — including tie-breaks — equals the full odometer sweep's.
pub(crate) fn maximize_over_assignments(t: &[f64], beta: f64, s_cap: u64) -> (f64, u64) {
    let len = t.len().trailing_zeros() as usize;
    if len == 0 {
        // One relation: the single point s = () at distance 0.
        return (inner_sum(t, &[]), 0);
    }
    let mut s = vec![0u64; len];
    let mut sf = vec![0.0f64; len];
    let mut best_value = 0.0f64;
    let mut best_distance = 0u64;
    loop {
        let (a, b) = linear_in_first(t, &sf);
        let peak = if b > 0.0 { 1.0 / beta - a / b } else { 0.0 };
        let peak = peak.clamp(0.0, s_cap as f64);
        let lo = (peak.floor() as u64).saturating_sub(1);
        let hi = (peak.ceil() as u64).saturating_add(1).min(s_cap);
        let rest: u64 = s[1..].iter().sum();
        for s0 in lo..=hi {
            sf[0] = s0 as f64;
            let k = s0 + rest;
            let value = (-beta * k as f64).exp() * inner_sum(t, &sf);
            if value > best_value {
                best_value = value;
                best_distance = k;
            }
        }
        // Odometer increment over {0..=s_cap}^{m-2} for s[1..].
        let mut pos = 1;
        loop {
            if pos == len {
                return (best_value, best_distance);
            }
            if s[pos] < s_cap {
                s[pos] += 1;
                sf[pos] = s[pos] as f64;
                break;
            }
            s[pos] = 0;
            sf[pos] = 0.0;
            pos += 1;
        }
    }
}

/// The outer maximum over relations: the first relation (in index order)
/// whose per-relation `(value, distance)` is strictly greatest, as
/// `(value, relation, distance)`.
pub(crate) fn best_over_relations(per_relation: &[(f64, u64)]) -> (f64, usize, u64) {
    let mut best = (0.0f64, 0usize, 0u64);
    for (i, &(value, distance)) in per_relation.iter().enumerate() {
        if value > best.0 {
            best = (value, i, distance);
        }
    }
    best
}

/// The test oracle for [`maximize_over_assignments`]: every point of
/// `{0..=s_cap}^{m-1}` in odometer order (`s[0]` fastest), a point replacing
/// the best only when strictly greater.
#[cfg(test)]
fn maximize_by_odometer(t: &[f64], beta: f64, s_cap: u64) -> (f64, u64) {
    let len = t.len().trailing_zeros() as usize;
    let mut s = vec![0u64; len];
    let mut best_value = 0.0f64;
    let mut best_distance = 0u64;
    loop {
        let k: u64 = s.iter().sum();
        let sf: Vec<f64> = s.iter().map(|&v| v as f64).collect();
        let value = (-beta * k as f64).exp() * inner_sum(t, &sf);
        if value > best_value {
            best_value = value;
            best_distance = k;
        }
        let mut pos = 0;
        loop {
            if pos == len {
                return (best_value, best_distance);
            }
            if s[pos] < s_cap {
                s[pos] += 1;
                break;
            }
            s[pos] = 0;
            pos += 1;
        }
    }
}

/// Computes the residual sensitivity `RS^β_count(I)` at the default
/// execution settings ([`SensitivityConfig::default`]: available cores,
/// byte-identical to the sequential path).  Builds a throwaway context per
/// call; hold an [`dpsyn_relational::ExecContext`] (or a `dpsyn::Session`)
/// to reuse the sub-join lattice across calls.
pub fn residual_sensitivity(
    query: &JoinQuery,
    instance: &Instance,
    beta: f64,
) -> Result<ResidualSensitivity> {
    SensitivityConfig::default()
        .to_context()
        .residual_sensitivity(query, instance, beta)
}

/// The quantity `L̂S^k(I)` of Definition 3.6: the maximum local sensitivity
/// over instances at distance at most `k` from `I`, evaluated exactly by
/// enumerating the integer compositions of `k` over `[m]∖{i}`.
///
/// Intended for moderate `k` (tests and cross-checks); `residual_sensitivity`
/// never calls it.
pub fn ls_hat_k(query: &JoinQuery, instance: &Instance, k: u64) -> Result<f64> {
    let m = query.num_relations();
    let table = boundary_table(m, &all_boundary_values(query, instance)?);
    let mut best = 0.0f64;
    for i in 0..m {
        let t = exclusion_table(&table, m, i);
        let parts = m - 1;
        if parts == 0 {
            best = best.max(inner_sum(&t, &[]));
            continue;
        }
        // Enumerate all non-negative integer vectors of length `parts` summing
        // to exactly k.
        let mut s = vec![0u64; parts];
        let mut sf = vec![0.0f64; parts];
        s[0] = k;
        loop {
            for (x, &v) in sf.iter_mut().zip(&s) {
                *x = v as f64;
            }
            best = best.max(inner_sum(&t, &sf));
            // Next composition in colex order: move one unit from the first
            // non-zero prefix position to the next position.
            let first_nonzero = match s[..parts - 1].iter().position(|&v| v > 0) {
                Some(p) => p,
                None => break,
            };
            let moved = s[first_nonzero] - 1;
            s[first_nonzero + 1] += 1;
            s[first_nonzero] = 0;
            s[0] = moved;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_relational::{AttrId, Relation};

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&x| AttrId(x)).collect()
    }

    fn two_table() -> (JoinQuery, Instance) {
        let q = JoinQuery::two_table(8, 8, 8);
        let r1 = Relation::from_tuples(
            ids(&[0, 1]),
            vec![(vec![0, 0], 1), (vec![1, 0], 2), (vec![2, 1], 1)],
        )
        .unwrap();
        let r2 = Relation::from_tuples(
            ids(&[1, 2]),
            vec![(vec![0, 0], 1), (vec![0, 1], 1), (vec![1, 3], 3)],
        )
        .unwrap();
        (q, Instance::new(vec![r1, r2]))
    }

    #[test]
    fn two_table_matches_closed_form() {
        // For two tables, L̂S^k = max(T_{R1}, T_{R2}) + k... more precisely
        // max_i (T_{[2]∖{i}} + k), so RS^β = max_k e^{-βk}·(LS + k) where
        // LS = max(T_{{0}}, T_{{1}}).
        let (q, inst) = two_table();
        let beta = 0.2;
        let rs = residual_sensitivity(&q, &inst, beta).unwrap();
        let ls = crate::local_sensitivity(&q, &inst).unwrap() as f64;
        let mut expect = 0.0f64;
        for k in 0..200u64 {
            expect = expect.max((-beta * k as f64).exp() * (ls + k as f64));
        }
        assert!(
            (rs.value - expect).abs() < 1e-9,
            "rs = {}, closed form = {expect}",
            rs.value
        );
    }

    #[test]
    fn residual_upper_bounds_local_sensitivity() {
        let (q, inst) = two_table();
        for &beta in &[0.05, 0.1, 0.5, 1.0, 5.0] {
            let rs = residual_sensitivity(&q, &inst, beta).unwrap();
            let ls = crate::local_sensitivity(&q, &inst).unwrap() as f64;
            assert!(rs.value >= ls - 1e-9, "beta = {beta}");
        }
    }

    #[test]
    fn residual_decreases_as_beta_grows() {
        let (q, inst) = two_table();
        let lo = residual_sensitivity(&q, &inst, 0.05).unwrap().value;
        let hi = residual_sensitivity(&q, &inst, 2.0).unwrap().value;
        assert!(lo >= hi);
    }

    #[test]
    fn matches_ls_hat_k_enumeration() {
        let (q, inst) = two_table();
        let beta = 0.4;
        let rs = residual_sensitivity(&q, &inst, beta).unwrap();
        // RS = max_k e^{-βk} L̂S^k; enumerate k up to a comfortable bound.
        let mut expect = 0.0f64;
        for k in 0..50u64 {
            let lsk = ls_hat_k(&q, &inst, k).unwrap();
            expect = expect.max((-beta * k as f64).exp() * lsk);
        }
        assert!((rs.value - expect).abs() < 1e-9);
    }

    #[test]
    fn three_table_star_residual() {
        let q = JoinQuery::star(3, 8).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        // Hub value 0 has 2, 3, 4 tuples in the three relations.
        for a in 0..2u64 {
            inst.relation_mut(0).add(vec![0, a], 1).unwrap();
        }
        for a in 0..3u64 {
            inst.relation_mut(1).add(vec![0, a], 1).unwrap();
        }
        for a in 0..4u64 {
            inst.relation_mut(2).add(vec![0, a], 1).unwrap();
        }
        let beta = 0.5;
        let rs = residual_sensitivity(&q, &inst, beta).unwrap();
        let ls = crate::local_sensitivity(&q, &inst).unwrap() as f64;
        assert_eq!(ls, 12.0);
        assert!(rs.value >= ls);
        // Cross-check against the k-wise enumeration.
        let mut expect = 0.0f64;
        for k in 0..30u64 {
            let lsk = ls_hat_k(&q, &inst, k).unwrap();
            expect = expect.max((-beta * k as f64).exp() * lsk);
        }
        assert!(
            (rs.value - expect).abs() / expect < 1e-9,
            "rs = {} expect = {expect}",
            rs.value
        );
        // The boundary values include every proper subset.
        assert_eq!(rs.boundary_values.len(), 7);
        assert_eq!(rs.boundary_value(&[]), Some(1));
    }

    #[test]
    fn ls_hat_zero_is_local_sensitivity() {
        let (q, inst) = two_table();
        let ls0 = ls_hat_k(&q, &inst, 0).unwrap();
        let ls = crate::local_sensitivity(&q, &inst).unwrap() as f64;
        assert!((ls0 - ls).abs() < 1e-12);
    }

    #[test]
    fn ls_hat_k_is_monotone_in_k() {
        let (q, inst) = two_table();
        let mut prev = 0.0;
        for k in 0..10u64 {
            let cur = ls_hat_k(&q, &inst, k).unwrap();
            assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    fn cached_boundary_values_match_naive_enumeration() {
        let q = JoinQuery::star(4, 8).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for r in 0..4usize {
            for hub in 0..3u64 {
                inst.relation_mut(r)
                    .add(vec![hub, (hub + r as u64) % 8], 1 + r as u64)
                    .unwrap();
            }
        }
        let cached = all_boundary_values(&q, &inst).unwrap();
        let naive = dpsyn_relational::naive::all_boundary_values_naive(&q, &inst).unwrap();
        assert_eq!(cached, naive);
        assert_eq!(cached.len(), (1 << 4) - 1);
    }

    #[test]
    fn parallel_enumeration_matches_sequential() {
        // Large enough (≥ MIN_PAR_INSTANCE distinct tuples) that the
        // multi-thread calls really take the sharded-cache path instead of
        // the small-instance sequential fallback.
        let q = JoinQuery::star(4, 64).unwrap();
        let mut inst = Instance::empty_for(&q).unwrap();
        for r in 0..4usize {
            for hub in 0..52u64 {
                for petal in 0..10u64 {
                    inst.relation_mut(r)
                        .add(vec![hub, (hub + petal + r as u64) % 64], 1 + hub % 2)
                        .unwrap();
                }
            }
        }
        let beta = 0.3;
        let seq = SensitivityConfig::sequential()
            .to_context()
            .residual_sensitivity(&q, &inst, beta)
            .unwrap();
        for threads in [2usize, 4, 8] {
            let ctx = SensitivityConfig::with_threads(threads).to_context();
            let bv = ctx.all_boundary_values(&q, &inst).unwrap();
            assert_eq!(bv, seq.boundary_values, "threads {threads}");
            let par = ctx.residual_sensitivity(&q, &inst, beta).unwrap();
            // Full struct equality: value, maximiser, distance, boundary map.
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    #[test]
    fn tiny_beta_two_table_matches_analytic_maximum() {
        // s_cap = 10^12: the full sweep would visit 10^12 points.
        let (q, inst) = two_table();
        let beta = 1e-12;
        let rs = residual_sensitivity(&q, &inst, beta).unwrap();
        let ls = crate::local_sensitivity(&q, &inst).unwrap() as f64;
        let peak = 1.0 / beta - ls;
        let expect = [peak.floor(), peak.ceil()]
            .iter()
            .map(|&k| (-beta * k).exp() * (ls + k))
            .fold(0.0f64, f64::max);
        assert!(
            (rs.value - expect).abs() / expect < 1e-9,
            "rs = {} expect = {expect}",
            rs.value
        );
        assert!((rs.maximizing_distance as f64 - peak).abs() <= 2.0);
    }

    /// SplitMix64: a dependency-free generator for the randomized tables.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A boundary map over every proper subset of `[m]`, `value(F)` per
    /// subset (the empty subset included, which the table overrides to 1).
    fn boundary_map(
        m: usize,
        mut value: impl FnMut(&[usize]) -> u128,
    ) -> BTreeMap<Vec<usize>, u128> {
        (0u32..(1 << m) - 1)
            .map(|mask| {
                let f: Vec<usize> = (0..m).filter(|r| mask & (1 << r) != 0).collect();
                let v = value(&f);
                (f, v)
            })
            .collect()
    }

    fn maximize_with(
        m: usize,
        beta: f64,
        boundary_values: &BTreeMap<Vec<usize>, u128>,
        maximize: fn(&[f64], f64, u64) -> (f64, u64),
    ) -> (f64, usize, u64) {
        let s_cap = (1.0 / beta).ceil() as u64;
        let table = boundary_table(m, boundary_values);
        let per_relation: Vec<(f64, u64)> = (0..m)
            .map(|i| maximize(&exclusion_table(&table, m, i), beta, s_cap))
            .collect();
        best_over_relations(&per_relation)
    }

    #[test]
    fn closed_form_matches_odometer_oracle_bit_for_bit() {
        let mut rng = SplitMix(0x5EED);
        let mut cases = 0;
        for m in 2..=6usize {
            for &beta in &[1.0f64, 0.5, 0.2, 0.05, 0.01, 1.0 / 887.0] {
                let s_cap = (1.0 / beta).ceil() as u64;
                if ((s_cap + 1) as f64).powi(m as i32 - 1) > 2e4 {
                    continue;
                }
                let mut tables: Vec<(&str, BTreeMap<Vec<usize>, u128>)> = Vec::new();
                for _ in 0..2 {
                    // Magnitudes spread over six decades.
                    tables.push((
                        "random",
                        boundary_map(m, |_| {
                            let decades = rng.below(7) as u32;
                            rng.below(10u64.pow(decades) + 1) as u128
                        }),
                    ));
                }
                // Depends only on |F|: every permutation of s ties exactly.
                let by_size: Vec<u128> = (0..m).map(|_| 1 + rng.below(50) as u128).collect();
                tables.push(("symmetric", boundary_map(m, |f| by_size[f.len()])));
                tables.push((
                    "zeros",
                    boundary_map(m, |_| {
                        if rng.below(2) == 0 {
                            0
                        } else {
                            rng.below(30) as u128
                        }
                    }),
                ));
                tables.push(("empty", boundary_map(m, |_| 0)));
                tables.push((
                    "above 2^53",
                    boundary_map(m, |f| {
                        if f.is_empty() {
                            1
                        } else {
                            (1u128 << (53 + rng.below(40))) + rng.next() as u128
                        }
                    }),
                ));
                for (kind, bv) in &tables {
                    let fast = maximize_with(m, beta, bv, maximize_over_assignments);
                    let oracle = maximize_with(m, beta, bv, maximize_by_odometer);
                    assert_eq!(
                        (fast.0.to_bits(), fast.1, fast.2),
                        (oracle.0.to_bits(), oracle.1, oracle.2),
                        "{kind} table, m = {m}, beta = {beta}: {fast:?} vs {oracle:?}"
                    );
                    cases += 1;
                }
            }
        }
        assert!(cases >= 100, "only {cases} cases ran");
    }

    #[test]
    fn rejects_invalid_beta() {
        let (q, inst) = two_table();
        assert!(residual_sensitivity(&q, &inst, 0.0).is_err());
        assert!(residual_sensitivity(&q, &inst, -1.0).is_err());
        assert!(residual_sensitivity(&q, &inst, f64::NAN).is_err());
    }

    #[test]
    fn empty_instance_residual_is_tiny() {
        let q = JoinQuery::two_table(4, 4, 4);
        let inst = Instance::empty_for(&q).unwrap();
        let rs = residual_sensitivity(&q, &inst, 0.5).unwrap();
        // With no data every T_F (F ≠ ∅) is 0, so only the k·T_∅ terms remain:
        // max_k e^{-βk}·k = e^{-β·2}·2 at β = 0.5.
        let expect = (0..20u64)
            .map(|k| (-0.5 * k as f64).exp() * k as f64)
            .fold(0.0f64, f64::max);
        assert!((rs.value - expect).abs() < 1e-9);
    }
}
