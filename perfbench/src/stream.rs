//! `stream_star`: one op applies a 16-op insert/delete batch through
//! `Session::apply_updates`, then asks for residual and local sensitivity
//! of the updated instance.  No PMW: the op's time is lattice maintenance
//! and re-population, with writes beside reads.
//!
//! The update stream is generated in set-up and is stationary: eight
//! batches with inserts and deletes balanced in expectation, each followed
//! by its inverse, repeated, so the instance stays within one batch of its
//! starting state however many ops a run completes.

use std::collections::BTreeMap;
use std::time::Duration;

use dpsyn::core::MultiTable;
use dpsyn::datagen::{update_stream, UpdateStreamConfig};
use dpsyn::noise::{seeded_rng, PrivacyParams};
use dpsyn::relational::{AttrId, Instance, JoinQuery, UpdateBatch, UpdateReport, Value};
use dpsyn::sensitivity::SensitivityOps;
use dpsyn::Session;
use rand::rngs::StdRng;

use crate::trace::Tracer;
use crate::{median, CacheCounters, Env, OrStr, Workload};

const RELATIONS: usize = 4;
const HUBS: u64 = 32;
const ROWS: usize = 2000;
const THETA: f64 = 1.1;
const BATCHES: usize = 8;
const BATCH_OPS: usize = 16;
/// Every this many ops the sensitivities are re-checked on a cold session.
const CHECK_EVERY: u64 = 10;
/// Largest allowed drift of the instance size over a run.
pub const MAX_DRIFT: f64 = 0.05;
/// Share of deletes that balances inserts in expectation: the generator's
/// inserts add 1–3 copies (2 on average), its deletes remove one.
const BALANCED_DELETES: f64 = 2.0 / 3.0;

/// `batches` update batches of `batch_size` ops, each generated against
/// `instance` itself (inserts and deletes balanced in expectation) and
/// followed by its inverse: the instance never strays more than one batch
/// from its start, and is back at it after every pair.
pub fn stationary_cycle(
    query: &JoinQuery,
    instance: &Instance,
    batches: usize,
    batch_size: usize,
    theta: f64,
    rng: &mut StdRng,
) -> Vec<UpdateBatch> {
    let config = UpdateStreamConfig {
        batches: 1,
        batch_size,
        delete_fraction: BALANCED_DELETES,
        theta,
    };
    (0..batches)
        .flat_map(|_| {
            let batch = update_stream(query, instance, config, rng).remove(0);
            let inverse = batch.inverse();
            [batch, inverse]
        })
        .collect()
}

/// `count(I)` of a star join: Σ over hub values of the product of the
/// relations' hub degrees (no join is materialised).
fn star_join_size(instance: &Instance) -> Result<f64, String> {
    let hub = [AttrId(0)];
    let mut per_hub: BTreeMap<Vec<Value>, f64> = instance
        .relation(0)
        .degree_map(&hub)
        .str()?
        .into_iter()
        .map(|(k, d)| (k, d as f64))
        .collect();
    for r in 1..instance.num_relations() {
        let degrees = instance.relation(r).degree_map(&hub).str()?;
        for (k, v) in per_hub.iter_mut() {
            *v *= degrees.get(k).copied().unwrap_or(0) as f64;
        }
    }
    Ok(per_hub.values().sum())
}

pub struct StreamStar {
    threads: usize,
    session: Session,
    query: JoinQuery,
    instance: Instance,
    cycle: Vec<UpdateBatch>,
    applied: usize,
    beta: f64,
    start_size: u64,
    errors: Vec<f64>,
    violations: Vec<String>,
    cache: CacheCounters,
}

pub struct Out {
    residual: f64,
    local: u128,
}

impl StreamStar {
    fn next_batch(&mut self) -> UpdateBatch {
        let batch = self.cycle[self.applied % self.cycle.len()].clone();
        self.applied += 1;
        batch
    }
}

impl Workload for StreamStar {
    type Out = Out;

    fn setup(env: &Env, _untimed: &mut Duration) -> Result<Self, String> {
        let mut rng = seeded_rng(env.seed);
        let (query, instance) = dpsyn::datagen::random_star(RELATIONS, HUBS, ROWS, THETA, &mut rng);
        let cycle = stationary_cycle(&query, &instance, BATCHES, BATCH_OPS, THETA, &mut rng);
        let beta = MultiTable::beta(PrivacyParams::new(1.0, 1e-6).str()?).str()?;
        let session = Session::with_threads(env.threads);
        let start_size = instance.input_size();
        Ok(StreamStar {
            threads: env.threads,
            session,
            query,
            instance,
            cycle,
            applied: 0,
            beta,
            start_size,
            errors: Vec::new(),
            violations: Vec::new(),
            cache: CacheCounters::default(),
        })
    }

    fn op(&mut self, _i: u64) -> Result<Out, String> {
        let batch = self.next_batch();
        self.session
            .apply_updates(&self.query, &mut self.instance, &batch)
            .str()?;
        let residual = self
            .session
            .residual_sensitivity(&self.query, &self.instance, self.beta)
            .str()?
            .value;
        let local = self
            .session
            .local_sensitivity(&self.query, &self.instance)
            .str()?;
        Ok(Out { residual, local })
    }

    /// Records `RS^β / count(I)`, the relative noise scale a count release
    /// calibrated to this bound would carry at ε = 1, and every
    /// [`CHECK_EVERY`] ops compares both sensitivities with a cold session.
    fn verify(&mut self, i: u64, out: Out) -> Result<(), String> {
        let count = star_join_size(&self.instance)?;
        self.errors.push(out.residual / count.max(1.0));
        if i.is_multiple_of(CHECK_EVERY) {
            let cold = Session::with_threads(self.threads);
            let rs = cold
                .residual_sensitivity(&self.query, &self.instance, self.beta)
                .str()?
                .value;
            let ls = cold.local_sensitivity(&self.query, &self.instance).str()?;
            if rs.to_bits() != out.residual.to_bits() || ls != out.local {
                return Err(format!(
                    "op {i}: warm (RS {}, LS {}) differs from cold (RS {rs}, LS {ls})",
                    out.residual, out.local
                ));
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        let end = self.instance.input_size() as f64;
        let start = self.start_size as f64;
        if (end - start).abs() > MAX_DRIFT * start {
            self.violations.push(format!(
                "instance size drifted from {start} to {end} over the run"
            ));
        }
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(self.violations.join("; "))
        }
    }

    fn accuracy(&self) -> f64 {
        crate::mean(&self.errors)
    }

    fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        self.cache.start(&self.session);
        let batch = self.next_batch();
        let out = tr.span("op", |tr| {
            let report: UpdateReport = tr
                .span("relational.stream_apply", |_| {
                    self.session
                        .apply_updates(&self.query, &mut self.instance, &batch)
                })
                .str()?;
            tr.count(
                "relational.maintained_masks",
                report.stats.maintained_masks as f64,
            );
            tr.count(
                "relational.rebuilt_masks",
                report.stats.rebuilt_masks as f64,
            );
            tr.span("relational.lattice_refill", |_| {
                self.session
                    .context()
                    .all_boundary_values(&self.query, &self.instance)
            })
            .str()?;
            let residual = tr
                .span("sensitivity.residual", |_| {
                    self.session
                        .residual_sensitivity(&self.query, &self.instance, self.beta)
                })
                .str()?
                .value;
            let local = tr
                .span("sensitivity.local", |_| {
                    self.session.local_sensitivity(&self.query, &self.instance)
                })
                .str()?;
            Ok::<_, String>(Out { residual, local })
        })?;
        tr.count("sensitivity.s_cap", (1.0 / self.beta).ceil());
        if let Err(e) = self.verify(i, out) {
            self.violations.push(e);
        }
        Ok(())
    }

    fn layers(&self, tr: &Tracer, ops: &[u64]) -> Vec<(&'static str, f64)> {
        let ms = |name: &str| tr.per_op_ms(name, ops);
        let op = ms("op");
        let apply = ms("relational.stream_apply");
        let refill = ms("relational.lattice_refill");
        let residual = ms("sensitivity.residual");
        let local = ms("sensitivity.local");
        let coverage: Vec<f64> = (0..ops.len())
            .map(|k| (apply[k] + refill[k] + residual[k] + local[k]) / op[k])
            .collect();
        let mut layers = vec![
            ("relational.stream_apply_ms", median(&apply)),
            ("relational.lattice_refill_ms", median(&refill)),
            (
                "relational.maintained_masks",
                median(&tr.per_op_count("relational.maintained_masks", ops)),
            ),
            (
                "relational.rebuilt_masks",
                median(&tr.per_op_count("relational.rebuilt_masks", ops)),
            ),
            ("sensitivity.residual_max_ms", median(&residual)),
            ("sensitivity.s_cap", (1.0 / self.beta).ceil()),
            ("sensitivity.local_ms", median(&local)),
            ("trace.coverage", median(&coverage)),
        ];
        layers.extend(
            self.cache
                .layers(&self.session, &self.query, &self.instance),
        );
        layers
    }
}
