//! `multi_retail` and `hier_retail`: one op is `Session::release` of a
//! private synthetic dataset followed by `SyntheticRelease::answer_all`.
//!
//! Both cycle [`INSTANCES`] `retail_star` instances op by op, each with its
//! own random-sign workload, at ε = 1, δ = 1e-6, on a warm session, with a
//! fresh release seed per op.  Cycling several instances keeps a run's figures from resting on
//! the shape of one generated instance.
//! The traced run splits the opaque release into its layers by replaying
//! it through the public layer functions with the same seed, and checks
//! that the replay reproduces the release bit for bit.

use std::time::{Duration, Instant};

use dpsyn::core::{
    HierarchicalConfig, HierarchicalRelease, Mechanism, MultiTable, SyntheticRelease,
};
use dpsyn::noise::{seeded_rng, PrivacyParams, TruncatedLaplace};
use dpsyn::pmw::{Histogram, Pmw, PmwConfig, PmwOutput};
use dpsyn::query::{AnswerSet, QueryFamily};
use dpsyn::relational::{join, Instance, JoinQuery};
use dpsyn::sensitivity::{SensitivityConfig, SensitivityOps};
use dpsyn::{ReleaseRequest, Session};
use rand::rngs::StdRng;

use crate::trace::Tracer;
use crate::{median, op_seed, CacheCounters, Env, OrStr, Workload};

const EPSILON: f64 = 1.0;
const DELTA: f64 = 1e-6;
/// Queries per workload.
const QUERIES: usize = 8;
/// Instances per run: the session's default number of LRU slots.
const INSTANCES: usize = 8;
/// Fewest ops in a `hier_retail` loop.  About one hierarchical op in six
/// partitions into two or more non-empty parts and takes twice as long, so
/// p90 sits just inside that slower group and moves with its share of a
/// run; 120 ops narrow that share while a run stays near 35 s.
const HIER_MIN_OPS: usize = 120;

/// Which release algorithm a workload runs, and on what instance size.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Multi,
    Hier,
}

impl Kind {
    /// `(products, rows per relation)` of every instance.  A hierarchical op
    /// on `retail_star(24, 150)` takes 1–2.5 s, too long for 100 ops in a
    /// run, so `hier_retail` uses smaller instances whose op is still
    /// dominated by residual maximisation: with 120 input rows every part's
    /// β is 1/887.
    fn shape(self) -> (u64, usize) {
        match self {
            Kind::Multi => (24, 150),
            Kind::Hier => (4, 40),
        }
    }

    fn mechanism(self) -> Box<dyn Mechanism> {
        match self {
            Kind::Multi => Box::new(MultiTable::default()),
            Kind::Hier => Box::new(HierarchicalRelease::new(HierarchicalConfig::default())),
        }
    }
}

/// The bits of a release's synthetic histogram, Δ̃ and noisy total.
#[derive(PartialEq)]
struct Released {
    weights: Vec<u64>,
    delta_tilde: u64,
    noisy_total: u64,
}

impl Released {
    fn of(release: &SyntheticRelease) -> Self {
        Released::from_parts(
            release.histogram(),
            release.delta_tilde(),
            release.noisy_total(),
        )
    }

    fn from_parts(histogram: &Histogram, delta_tilde: f64, noisy_total: f64) -> Self {
        Released {
            weights: bits(histogram.weights()),
            delta_tilde: delta_tilde.to_bits(),
            noisy_total: noisy_total.to_bits(),
        }
    }
}

/// A warm op's output, kept for the cold re-run gate.
struct Reference {
    op: u64,
    answers: Vec<u64>,
    released: Released,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One generated instance and its workload, with truth computed untimed
/// in set-up.
struct Case {
    query: JoinQuery,
    instance: Instance,
    workload: QueryFamily,
    truth: AnswerSet,
    join_size: f64,
    /// `RS^β(I)` for `MultiTable`'s β (gate: every Δ̃ dominates it).
    residual: f64,
}

pub struct Retail {
    kind: Kind,
    seed: u64,
    threads: usize,
    session: Session,
    cases: Vec<Case>,
    params: PrivacyParams,
    errors: Vec<f64>,
    reference: Option<Reference>,
    violations: Vec<String>,
    cache: CacheCounters,
}

pub struct MultiRetail(Retail);
pub struct HierRetail(Retail);

impl Retail {
    fn setup(kind: Kind, env: &Env, untimed: &mut Duration) -> Result<Self, String> {
        let (products, rows) = kind.shape();
        let mut rng = seeded_rng(env.seed);
        let session = Session::with_threads(env.threads);
        let mut generated = Vec::with_capacity(INSTANCES);
        for k in 0..INSTANCES {
            let (query, instance) = dpsyn::datagen::retail_star(products, rows, &mut rng);
            let workload = session
                .random_sign_workload(&query, QUERIES, env.seed ^ (0x5eed + k as u64))
                .str()?;
            generated.push((query, instance, workload));
        }
        let params = PrivacyParams::new(EPSILON, DELTA).str()?;

        let t = Instant::now();
        let reference = Session::with_threads(env.threads);
        let beta = MultiTable::beta(params).str()?;
        let mut cases = Vec::with_capacity(generated.len());
        for (query, instance, workload) in generated {
            let join_size = reference.join_size(&query, &instance).str()? as f64;
            if join_size <= 0.0 {
                return Err("generated instance has an empty join".to_string());
            }
            cases.push(Case {
                truth: reference.answer_truth(&query, &instance, &workload).str()?,
                join_size,
                residual: reference
                    .residual_sensitivity(&query, &instance, beta)
                    .str()?
                    .value,
                query,
                instance,
                workload,
            });
        }
        *untimed += t.elapsed();
        Ok(Retail {
            kind,
            seed: env.seed,
            threads: env.threads,
            session,
            cases,
            params,
            errors: Vec::new(),
            reference: None,
            violations: Vec::new(),
            cache: CacheCounters::default(),
        })
    }

    /// The case op `i` runs on.
    fn case(&self, i: u64) -> &Case {
        &self.cases[i as usize % self.cases.len()]
    }

    fn request(&self, i: u64) -> ReleaseRequest<'_> {
        let case = self.case(i);
        ReleaseRequest::new(&case.query, &case.instance, &case.workload, self.params)
            .with_seed(op_seed(self.seed, i))
    }

    fn release_on(
        &self,
        session: &Session,
        i: u64,
    ) -> Result<(SyntheticRelease, AnswerSet), String> {
        let req = self.request(i);
        let release = session
            .release(self.kind.mechanism().as_ref(), &req)
            .str()?;
        let answers = release.answer_all(&self.case(i).workload).str()?;
        Ok((release, answers))
    }

    fn verify(
        &mut self,
        i: u64,
        (release, answers): (SyntheticRelease, AnswerSet),
    ) -> Result<(), String> {
        let case = self.case(i);
        if answers.len() != case.workload.len() {
            return Err(format!(
                "{} answers for {} queries",
                answers.len(),
                case.workload.len()
            ));
        }
        let err = answers.linf_distance(&case.truth).str()? / case.join_size;
        let residual = case.residual;
        self.errors.push(err);
        if self.kind == Kind::Multi && release.delta_tilde() < residual {
            return Err(format!(
                "op {i}: released Δ̃ {} below RS^β {residual}",
                release.delta_tilde()
            ));
        }
        if i >= 1 && self.reference.is_none() {
            self.reference = Some(Reference {
                op: i,
                answers: bits(answers.values()),
                released: Released::of(&release),
            });
        }
        Ok(())
    }

    /// Warm ≡ cold: the reference op re-run on a fresh session matches the
    /// warm session's output byte for byte.
    fn finish(&mut self) -> Result<(), String> {
        if let Some(r) = &self.reference {
            let cold = Session::with_threads(self.threads);
            let (release, answers) = self.release_on(&cold, r.op)?;
            if bits(answers.values()) != r.answers || Released::of(&release) != r.released {
                self.violations.push(format!(
                    "op {} on a cold session differs from the warm one",
                    r.op
                ));
            }
        }
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(self.violations.join("; "))
        }
    }

    fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        self.cache.start(&self.session);
        let (release, answers) = tr.span("op", |tr| {
            let req = self.request(i);
            let mechanism = self.kind.mechanism();
            let release = tr
                .span("session.release", |_| {
                    self.session.release(mechanism.as_ref(), &req)
                })
                .str()?;
            let answers = tr
                .span("query.answer_all", |_| {
                    release.answer_all(&self.case(i).workload)
                })
                .str()?;
            Ok::<_, String>((release, answers))
        })?;
        let replayed = tr.span("replay", |tr| match self.kind {
            Kind::Multi => self.replay_multi(i, tr),
            Kind::Hier => self.replay_hier(i, tr),
        })?;
        if replayed != Released::of(&release) {
            self.violations.push(format!(
                "op {i}: layer replay does not reproduce the release"
            ));
        }
        if let Err(e) = self.verify(i, (release, answers)) {
            self.violations.push(e);
        }
        Ok(())
    }

    /// One `MultiTable` release through its layers: residual sensitivity
    /// on the warm session, truncated-Laplace Δ̃, PMW.
    fn replay_multi(&self, i: u64, tr: &mut Tracer) -> Result<Released, String> {
        let mut rng = seeded_rng(op_seed(self.seed, i));
        let case = self.case(i);
        let beta = MultiTable::beta(self.params).str()?;
        let rs = tr
            .span("sensitivity.residual", |_| {
                self.session
                    .residual_sensitivity(&case.query, &case.instance, beta)
            })
            .str()?;
        let (out, delta_tilde) =
            self.pmw_part(tr, case, &case.instance, self.params, rs.value, &mut rng)?;
        tr.count("core.parts", 1.0);
        let fresh = SensitivityConfig::with_threads(self.threads).to_context();
        tr.span("relational.lattice_cold", |_| {
            fresh.all_boundary_values(&case.query, &case.instance)
        })
        .str()?;
        Ok(Released::from_parts(
            &out.histogram,
            delta_tilde,
            out.noisy_total,
        ))
    }

    /// One hierarchical release through its layers: the partition, then per
    /// non-empty part a cold lattice on a fresh context, the maximisation on
    /// that now-warm lattice, and PMW; parts are unioned in order.
    fn replay_hier(&self, i: u64, tr: &mut Tracer) -> Result<Released, String> {
        let mut rng = seeded_rng(op_seed(self.seed, i));
        let case = self.case(i);
        let query = &case.query;
        let hier = HierarchicalRelease::new(HierarchicalConfig::default());
        let parts = tr
            .span("core.partition", |_| {
                hier.partition(query, &case.instance, self.params, &mut rng)
            })
            .str()?;
        let replication = HierarchicalRelease::replication_bound(
            query,
            case.instance.input_size(),
            self.params.lambda(),
        )
        .str()?;
        let per_release = PrivacyParams::new(
            self.params.epsilon() / (2.0 * replication),
            (self.params.delta() / (2.0 * replication)).max(f64::MIN_POSITIVE),
        )
        .str()?;
        let beta = MultiTable::beta(per_release).str()?;
        let mut combined: Option<(Histogram, f64, f64)> = None;
        for part in parts.iter().filter(|p| p.sub_instance.input_size() > 0) {
            let sub = &part.sub_instance;
            let ctx = SensitivityConfig::with_threads(self.threads).to_context();
            tr.span("relational.lattice_cold", |_| {
                ctx.all_boundary_values(query, sub)
            })
            .str()?;
            let rs = tr
                .span("sensitivity.residual", |_| {
                    ctx.residual_sensitivity(query, sub, beta)
                })
                .str()?;
            let (out, delta_tilde) =
                self.pmw_part(tr, case, sub, per_release, rs.value, &mut rng)?;
            tr.count("core.parts", 1.0);
            combined = Some(match combined {
                None => (out.histogram, out.noisy_total, delta_tilde),
                Some((mut h, total, dt)) => {
                    h.accumulate(&out.histogram).str()?;
                    (h, total + out.noisy_total, dt.max(delta_tilde))
                }
            });
        }
        let (h, total, dt) = combined.ok_or("hierarchical partition left no non-empty part")?;
        Ok(Released::from_parts(&h, dt, total))
    }

    /// `MultiTable`'s Δ̃ and PMW for one (sub-)instance released under
    /// `params`, then the two PMW internals that `Pmw::run` does not expose,
    /// timed on their own: the full join and the per-query weight vectors.
    fn pmw_part(
        &self,
        tr: &mut Tracer,
        case: &Case,
        instance: &Instance,
        params: PrivacyParams,
        residual: f64,
        rng: &mut StdRng,
    ) -> Result<(PmwOutput, f64), String> {
        let beta = MultiTable::beta(params).str()?;
        let half = params.halve();
        let tlap = TruncatedLaplace::calibrated(half.epsilon(), half.delta(), beta).str()?;
        let delta_tilde = residual.max(1.0) * tlap.sample(rng).exp();
        let config = PmwConfig::default();
        let out = tr
            .span("pmw.run", |_| {
                Pmw::new(config).run(
                    &case.query,
                    instance,
                    &case.workload,
                    half,
                    delta_tilde,
                    rng,
                )
            })
            .str()?;
        tr.span("relational.full_join", |_| join(&case.query, instance))
            .str()?;
        let cells = tr
            .span("pmw.weight_vectors", |_| {
                let h = Histogram::uniform(&case.query, out.noisy_total, config.max_domain_cells)?;
                for q in case.workload.iter() {
                    std::hint::black_box(h.query_weight_vector(&case.query, q)?);
                }
                Ok::<_, dpsyn::pmw::PmwError>(h.len())
            })
            .str()?;
        tr.count("pmw.iterations", out.iterations as f64);
        tr.count("pmw.weight_entries", (cells * case.workload.len()) as f64);
        tr.count("sensitivity.s_cap", (1.0 / beta).ceil());
        Ok((out, delta_tilde))
    }

    fn layers(&self, tr: &Tracer, ops: &[u64]) -> Vec<(&'static str, f64)> {
        let ms = |name: &str| tr.per_op_ms(name, ops);
        let count = |name: &str| tr.per_op_count(name, ops);
        let op = ms("op");
        let run = ms("pmw.run");
        let full_join = ms("relational.full_join");
        let weights = ms("pmw.weight_vectors");
        let residual = ms("sensitivity.residual");
        let answer = ms("query.answer_all");
        let partition = ms("core.partition");
        let lattice = ms("relational.lattice_cold");
        let rounds: Vec<f64> = (0..ops.len())
            .map(|k| run[k] - full_join[k] - weights[k])
            .collect();
        // Layer self times that make up the op: the release's layers (from
        // the replay) plus answer evaluation.  The multi-table lattice is
        // warm inside the op, so its cold figure is not part of the sum.
        let coverage: Vec<f64> = (0..ops.len())
            .map(|k| {
                let mut covered = residual[k] + run[k] + answer[k];
                if self.kind == Kind::Hier {
                    covered += partition[k] + lattice[k];
                }
                covered / op[k]
            })
            .collect();
        let parts = count("core.parts");
        // s_cap is recorded once per part; report it per part.
        let s_cap: Vec<f64> = count("sensitivity.s_cap")
            .iter()
            .zip(&parts)
            .map(|(s, p)| s / p.max(1.0))
            .collect();
        let mut layers = vec![
            ("relational.full_join_ms", median(&full_join)),
            ("relational.lattice_cold_ms", median(&lattice)),
            ("sensitivity.residual_max_ms", median(&residual)),
            ("sensitivity.s_cap", median(&s_cap)),
            ("core.partition_ms", median(&partition)),
            ("core.parts", median(&parts)),
            ("pmw.weight_vectors_ms", median(&weights)),
            ("pmw.run_ms", median(&run)),
            ("pmw.rounds_self_ms", median(&rounds)),
            ("pmw.iterations", median(&count("pmw.iterations"))),
            ("pmw.weight_entries", median(&count("pmw.weight_entries"))),
            ("query.answer_all_ms", median(&answer)),
            ("trace.coverage", median(&coverage)),
        ];
        let first = &self.cases[0];
        layers.extend(
            self.cache
                .layers(&self.session, &first.query, &first.instance),
        );
        layers
    }
}

macro_rules! retail_workload {
    ($ty:ident, $kind:expr, $min_ops:expr) => {
        impl Workload for $ty {
            type Out = (SyntheticRelease, AnswerSet);
            const MIN_OPS: usize = $min_ops;

            fn setup(env: &Env, untimed: &mut Duration) -> Result<Self, String> {
                Retail::setup($kind, env, untimed).map($ty)
            }
            fn op(&mut self, i: u64) -> Result<Self::Out, String> {
                self.0.release_on(&self.0.session, i)
            }
            fn verify(&mut self, i: u64, out: Self::Out) -> Result<(), String> {
                self.0.verify(i, out)
            }
            fn finish(&mut self) -> Result<(), String> {
                self.0.finish()
            }
            fn accuracy(&self) -> f64 {
                crate::mean(&self.0.errors)
            }
            fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
                self.0.traced_op(i, tr)
            }
            fn layers(&self, tr: &Tracer, ops: &[u64]) -> Vec<(&'static str, f64)> {
                self.0.layers(tr, ops)
            }
        }
    };
}

retail_workload!(MultiRetail, Kind::Multi, crate::MIN_OPS);
retail_workload!(HierRetail, Kind::Hier, HIER_MIN_OPS);
