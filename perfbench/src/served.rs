//! `served_small`: one client in a closed loop over loopback HTTP against
//! an in-process `dpsyn_server::start`.  One op is one cycle: `POST` a
//! 4-op update batch, `POST /v1/release` with `two_table`, then with
//! `multi_table` (16 queries each), then `GET` the tenant's budget.
//!
//! The benchmark keeps an in-process mirror of the served dataset (same
//! query construction, same updates through `Session::apply_updates`), which
//! gives the truth for the accuracy figure, the expected fingerprints for
//! the update chain, and the in-process release times the traced run sets
//! against the round trips.  Requests carry no `seed` and no check depends
//! on noise values.
//!
//! The server's accept loop polls every 5 ms.  A client that sends its next
//! request the moment a reply lands arrives at a phase of that poll set by
//! the handler's time, so a cycle's latency steps by 5 ms when the host's
//! speed moves the handlers across a step (p50 read 46.7 or 51.8 ms by
//! seed).  The client therefore pauses a seeded, uniformly drawn 0–5 ms
//! before each request, so every request meets the poll at a uniform phase;
//! the pauses are not part of an op's latency.
//!
//! Each set-up uses a fresh ledger directory under the work dir and deletes
//! it when the workload is dropped; fsync timings are those of the
//! filesystem the benchmark runs on.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dpsyn::core::MultiTable;
use dpsyn::noise::{seeded_rng, PrivacyParams};
use dpsyn::query::{AnswerSet, QueryFamily};
use dpsyn::relational::{
    instance_fingerprint, Attribute, Instance, JoinQuery, Schema, UpdateBatch, UpdateOp,
};
use dpsyn::server::handlers::mechanism_by_name;
use dpsyn::server::{start, Json, ServerConfig, ServerHandle, Store};
use dpsyn::Session;
use rand::rngs::StdRng;
use rand::Rng;

use crate::http::call;
use crate::stream::{stationary_cycle, MAX_DRIFT};
use crate::trace::Tracer;
use crate::{median, CacheCounters, Env, OrStr, Workload};

const DOMAIN: u64 = 16;
const ROWS: usize = 200;
const QUERIES: usize = 16;
const UPDATE_OPS: usize = 4;
const BATCHES: usize = 8;
/// Per-release ε: a power of two, so the ledger's running sum is exact and
/// the spent-budget gate can compare bits.
const EPSILON: f64 = 0.125;
const DELTA: f64 = 1.0 / (1u64 << 30) as f64;
const GRANT_EPSILON: f64 = 65536.0;
const GRANT_DELTA: f64 = 0.5;
const TENANT: &str = "bench";
const DATASET: &str = "bench";
const MECHANISMS: [&str; 2] = ["two_table", "multi_table"];
/// Longest client pause before a request: the accept loop's poll period.
const PAUSE_MAX: Duration = Duration::from_millis(5);

/// Distinguishes the ledger directories of successive set-ups.
static SETUPS: AtomicUsize = AtomicUsize::new(0);

/// The JSON bodies of one cycle's 2xx replies.
pub struct Out {
    update: Json,
    releases: Vec<Json>,
    budget: Json,
}

pub struct ServedSmall {
    dir: PathBuf,
    server: Option<ServerHandle>,
    addr: String,
    workload_seed: u64,
    query: JoinQuery,
    /// The mirror of the served dataset, and the session that maintains it.
    mirror: Instance,
    session: Session,
    family: QueryFamily,
    cycle: Vec<UpdateBatch>,
    bodies: Vec<String>,
    /// Batches the server has acknowledged, and how many the mirror applied.
    sent: usize,
    mirrored: usize,
    /// Truth and join size of every state of the update cycle.
    truth: Vec<(AnswerSet, f64)>,
    start_size: u64,
    fingerprint: String,
    releases: u64,
    errors: Vec<f64>,
    violations: Vec<String>,
    ledger: Option<Store>,
    cache: CacheCounters,
    server_cache_base: Option<(f64, f64)>,
    /// Draws the client's pauses, and their total in the current op.
    pauses: StdRng,
    paused: Duration,
}

fn hex(fp: u64) -> String {
    format!("{fp:016x}")
}

fn str_at<'a>(json: &'a Json, path: &[&str]) -> Option<&'a str> {
    path.iter().try_fold(json, |j, k| j.get(k))?.as_str()
}

fn num_at(json: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(json, |j, k| j.get(k))?.as_f64()
}

fn dataset_body(query: &JoinQuery, instance: &Instance) -> String {
    let schema = query.schema();
    let domains: Vec<String> = schema
        .ids()
        .map(|a| {
            schema
                .domain_size(a)
                .expect("attribute in schema")
                .to_string()
        })
        .collect();
    let relations: Vec<String> = instance
        .relations()
        .iter()
        .map(|r| {
            let attrs: Vec<String> = r.attrs().iter().map(|a| a.0.to_string()).collect();
            let tuples: Vec<String> = r.iter().map(|(t, f)| format!("[{:?},{f}]", t)).collect();
            format!(
                "{{\"attrs\":[{}],\"tuples\":[{}]}}",
                attrs.join(","),
                tuples.join(",")
            )
        })
        .collect();
    format!(
        "{{\"v\":1,\"name\":\"{DATASET}\",\"domains\":[{}],\"relations\":[{}]}}",
        domains.join(","),
        relations.join(",")
    )
}

fn update_body(batch: &UpdateBatch) -> String {
    let ops: Vec<String> = batch
        .ops()
        .iter()
        .map(|op| {
            let (kind, relation, tuple, count) = match op {
                UpdateOp::Insert { relation, tuple, count } => ("insert", relation, tuple, count),
                UpdateOp::Delete { relation, tuple, count } => ("delete", relation, tuple, count),
            };
            format!(
                "{{\"relation\":{relation},\"op\":\"{kind}\",\"tuple\":{tuple:?},\"count\":{count}}}"
            )
        })
        .collect();
    format!("{{\"v\":1,\"updates\":[{}]}}", ops.join(","))
}

impl ServedSmall {
    fn release_body(&self, mechanism: &str) -> String {
        format!(
            "{{\"v\":1,\"tenant\":\"{TENANT}\",\"dataset\":\"{DATASET}\",\"mechanism\":\"{mechanism}\",\
             \"epsilon\":{EPSILON:?},\"delta\":{DELTA:?},\"workload_size\":{QUERIES},\"workload_seed\":{}}}",
            self.workload_seed
        )
    }

    /// Sleeps a uniform 0–[`PAUSE_MAX`] before a request (in an `idle`
    /// span when traced) and adds the time slept to `paused`.
    fn pause(&mut self, tr: &mut Option<&mut Tracer>) {
        let wait = PAUSE_MAX.mul_f64(self.pauses.random::<f64>());
        let t = Instant::now();
        match tr {
            Some(tr) => tr.span("idle", |_| std::thread::sleep(wait)),
            None => std::thread::sleep(wait),
        }
        self.paused += t.elapsed();
    }

    fn request(&self, method: &str, path: &str, body: &str) -> Result<Json, String> {
        let (status, body) = call(&self.addr, method, path, body)?;
        if !(200..300).contains(&status) {
            return Err(format!("{method} {path}: status {status}: {body:?}"));
        }
        Ok(body)
    }

    fn cycle_op(&mut self, tr: &mut Option<&mut Tracer>) -> Result<Out, String> {
        let timed = |tr: &mut Option<&mut Tracer>, name, f: &mut dyn FnMut() -> _| match tr {
            Some(t) => t.span(name, |_| f()),
            None => f(),
        };
        self.paused = Duration::ZERO;
        let k = self.sent % self.cycle.len();
        let path = format!("/v1/dataset/{DATASET}/updates");
        self.pause(tr);
        let update = timed(tr, "server.rtt_update", &mut || {
            self.request("POST", &path, &self.bodies[k])
        })?;
        self.sent += 1;
        let mut releases = Vec::with_capacity(MECHANISMS.len());
        for mechanism in MECHANISMS {
            let body = self.release_body(mechanism);
            self.pause(tr);
            releases.push(timed(tr, "server.rtt_release", &mut || {
                self.request("POST", "/v1/release", &body)
            })?);
        }
        let path = format!("/v1/tenant/{TENANT}");
        self.pause(tr);
        let budget = timed(tr, "server.rtt_budget", &mut || {
            self.request("GET", &path, "")
        })?;
        Ok(Out {
            update,
            releases,
            budget,
        })
    }

    /// Applies the batches the server acknowledged to the mirror.
    fn sync_mirror(&mut self, tr: Option<&mut Tracer>) -> Result<(), String> {
        let mut tr = tr;
        while self.mirrored < self.sent {
            let batch = &self.cycle[self.mirrored % self.cycle.len()];
            let mut apply = || {
                self.session
                    .apply_updates(&self.query, &mut self.mirror, batch)
            };
            let report = match tr.as_deref_mut() {
                Some(t) => t.span("relational.stream_apply", |_| apply()),
                None => apply(),
            }
            .str()?;
            if let Some(t) = tr.as_deref_mut() {
                t.count(
                    "relational.maintained_masks",
                    report.stats.maintained_masks as f64,
                );
                t.count(
                    "relational.rebuilt_masks",
                    report.stats.rebuilt_masks as f64,
                );
            }
            self.mirrored += 1;
        }
        Ok(())
    }

    fn check(&mut self, out: Out) -> Result<(), String> {
        let previous = str_at(&out.update, &["previous_fingerprint"]).unwrap_or("");
        let current = str_at(&out.update, &["fingerprint"]).unwrap_or("");
        if previous != self.fingerprint {
            return Err(format!(
                "update chain broken: previous_fingerprint {previous}, expected {}",
                self.fingerprint
            ));
        }
        let expected = hex(instance_fingerprint(&self.query, &self.mirror));
        if current != expected {
            return Err(format!(
                "served fingerprint {current} differs from the mirror's {expected}"
            ));
        }
        self.fingerprint = current.to_string();

        let (truth, join_size) = &self.truth[self.mirrored % self.cycle.len()];
        for reply in &out.releases {
            let answers: Vec<f64> = reply
                .get("result")
                .and_then(|r| r.get("answers"))
                .and_then(Json::as_arr)
                .ok_or("release reply has no answers")?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            if answers.len() != QUERIES {
                return Err(format!("{} answers for {QUERIES} queries", answers.len()));
            }
            let err = AnswerSet::new(answers).linf_distance(truth).str()?;
            self.errors.push(err / join_size);
            self.releases += 1;
        }

        let spent = str_at(&out.budget, &["budget", "spent", "epsilon_bits"]).unwrap_or("");
        let expected = hex((self.releases as f64 * EPSILON).to_bits());
        let committed = num_at(&out.budget, &["budget", "committed"]).unwrap_or(-1.0);
        let pending = num_at(&out.budget, &["budget", "pending"]).unwrap_or(-1.0);
        if spent != expected || committed != self.releases as f64 || pending != 0.0 {
            return Err(format!(
                "ledger: spent ε bits {spent} (expected {expected} for {} releases), \
                 {committed} committed, {pending} pending",
                self.releases
            ));
        }
        Ok(())
    }

    /// `(hits, misses)` of the served dataset's execution context.
    fn server_cache(&self) -> Result<(f64, f64), String> {
        let reply = self.request("GET", &format!("/v1/dataset/{DATASET}"), "")?;
        let hits = num_at(&reply, &["cache", "hits"]).ok_or("no cache hits")?;
        let misses = num_at(&reply, &["cache", "misses"]).ok_or("no cache misses")?;
        Ok((hits, misses))
    }
}

impl Drop for ServedSmall {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.ledger = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for ServedSmall {
    type Out = Out;

    fn setup(env: &Env, untimed: &mut Duration) -> Result<Self, String> {
        let mut rng = seeded_rng(env.seed);
        let (generated_query, generated) = dpsyn::datagen::random_two_table(DOMAIN, ROWS, &mut rng);
        // The mirror's query is built exactly as the server builds it from
        // the upload body.
        let attrs = (0..generated_query.schema().attr_count())
            .map(|i| Attribute::new(format!("a{i}"), DOMAIN))
            .collect();
        let rel_attrs = generated
            .relations()
            .iter()
            .map(|r| r.attrs().to_vec())
            .collect();
        let query = JoinQuery::new(Schema::new(attrs), rel_attrs).str()?;
        let mut mirror = Instance::empty_for(&query).str()?;
        for (i, r) in generated.relations().iter().enumerate() {
            for (t, f) in r.iter() {
                mirror.relation_mut(i).add(t.clone(), f).str()?;
            }
        }
        let cycle = stationary_cycle(&query, &mirror, BATCHES, UPDATE_OPS, 0.0, &mut rng);
        let bodies = cycle.iter().map(update_body).collect();
        let workload_seed = env.seed ^ 0x5eed;

        let dir = env.work_dir.join(format!(
            "served-{}-{}",
            std::process::id(),
            SETUPS.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let server = start(ServerConfig::new(&dir)).map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr.to_string();
        let session = Session::with_threads(env.threads);
        let family =
            QueryFamily::random_sign(&query, QUERIES, &mut seeded_rng(workload_seed)).str()?;
        let start_size = mirror.input_size();
        let mut w = ServedSmall {
            dir,
            server: Some(server),
            addr,
            workload_seed,
            query,
            mirror,
            session,
            family,
            cycle,
            bodies,
            sent: 0,
            mirrored: 0,
            truth: Vec::new(),
            start_size,
            fingerprint: String::new(),
            releases: 0,
            errors: Vec::new(),
            violations: Vec::new(),
            ledger: None,
            cache: CacheCounters::default(),
            server_cache_base: None,
            pauses: seeded_rng(env.seed ^ 0x9a05e),
            paused: Duration::ZERO,
        };
        w.request(
            "POST",
            "/v1/tenant",
            &format!(
                "{{\"v\":1,\"tenant\":\"{TENANT}\",\"epsilon\":{GRANT_EPSILON:?},\"delta\":{GRANT_DELTA:?}}}"
            ),
        )?;
        let uploaded = w.request("POST", "/v1/dataset", &dataset_body(&w.query, &w.mirror))?;
        w.fingerprint = str_at(&uploaded, &["fingerprint"])
            .ok_or("upload reply has no fingerprint")?
            .to_string();

        // Truth for every state of the update cycle (untimed).
        let t = Instant::now();
        let reference = Session::with_threads(env.threads);
        let mut state = w.mirror.clone();
        for k in 0..w.cycle.len() {
            let truth = reference.answer_truth(&w.query, &state, &w.family).str()?;
            let size = reference.join_size(&w.query, &state).str()? as f64;
            if size <= 0.0 {
                return Err("an update-cycle state has an empty join".to_string());
            }
            w.truth.push((truth, size));
            dpsyn::relational::apply_batch(&w.query, &mut state, &w.cycle[k]).str()?;
        }
        if instance_fingerprint(&w.query, &state) != instance_fingerprint(&w.query, &w.mirror) {
            return Err("the update cycle does not return to the initial instance".to_string());
        }
        if hex(instance_fingerprint(&w.query, &w.mirror)) != w.fingerprint {
            return Err("uploaded fingerprint differs from the mirror's".to_string());
        }
        *untimed += t.elapsed();
        Ok(w)
    }

    fn op(&mut self, _i: u64) -> Result<Out, String> {
        self.cycle_op(&mut None)
    }

    fn idle(&self) -> Duration {
        self.paused
    }

    fn verify(&mut self, _i: u64, out: Out) -> Result<(), String> {
        self.sync_mirror(None)?;
        self.check(out)
    }

    fn finish(&mut self) -> Result<(), String> {
        let start = self.start_size as f64;
        let end = self.mirror.input_size() as f64;
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

    fn traced_op(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        self.cache.start(&self.session);
        if self.server_cache_base.is_none() {
            self.server_cache_base = Some(self.server_cache()?);
        }
        if self.ledger.is_none() {
            let store = Store::open(self.dir.join("scratch-ledger"))?;
            store
                .create_tenant(
                    TENANT,
                    PrivacyParams::new(GRANT_EPSILON, GRANT_DELTA).str()?,
                )
                .map_err(|e| format!("{e:?}"))?;
            self.ledger = Some(store);
        }
        let out = tr.span("op", |tr| self.cycle_op(&mut Some(tr)))?;
        let replay = tr.span("replay", |tr| {
            self.sync_mirror(Some(&mut *tr))?;
            let cost = PrivacyParams::new(EPSILON, DELTA).str()?;
            for mechanism in MECHANISMS {
                tr.span("server.release_inproc", |_| {
                    let m = mechanism_by_name(mechanism).ok_or("unknown mechanism")?;
                    let release = m
                        .release_ctx(
                            self.session.context(),
                            &self.query,
                            &self.mirror,
                            &self.family,
                            cost,
                            &mut seeded_rng(0),
                        )
                        .str()?;
                    release.answer_all(&self.family).str()
                })?;
            }
            let store = self.ledger.as_ref().expect("opened above");
            tr.span("server.ledger_charge", |_| {
                let (seq, _) = store
                    .begin_charge(TENANT, cost, "release:multi_table/bench")
                    .map_err(|e| format!("{e:?}"))?;
                store
                    .commit_charge(TENANT, seq)
                    .map_err(|e| format!("{e:?}"))
            })?;
            Ok::<_, String>(())
        });
        replay?;
        if let Err(e) = self.check(out) {
            self.violations.push(e);
        }
        Ok(())
    }

    fn layers(&self, tr: &Tracer, ops: &[u64]) -> Vec<(&'static str, f64)> {
        let ms = |name: &str| tr.per_op_ms(name, ops);
        let per_release =
            |v: Vec<f64>| -> Vec<f64> { v.iter().map(|x| x / MECHANISMS.len() as f64).collect() };
        let idle = ms("idle");
        let op: Vec<f64> = ms("op").iter().zip(&idle).map(|(o, i)| o - i).collect();
        let update = ms("server.rtt_update");
        let budget = ms("server.rtt_budget");
        let rtt = per_release(ms("server.rtt_release"));
        let inproc = per_release(ms("server.release_inproc"));
        let overhead: Vec<f64> = rtt.iter().zip(&inproc).map(|(r, i)| r - i).collect();
        let coverage: Vec<f64> = (0..ops.len())
            .map(|k| (update[k] + rtt[k] * MECHANISMS.len() as f64 + budget[k]) / op[k])
            .collect();
        let beta = PrivacyParams::new(EPSILON, DELTA)
            .ok()
            .and_then(|p| MultiTable::beta(p).ok())
            .unwrap_or(1.0);
        let mut layers = self.cache.layers(&self.session, &self.query, &self.mirror);
        // The hit ratio is the server's own, from its dataset endpoint.
        if let (Some((h0, m0)), Ok((h, m))) = (self.server_cache_base, self.server_cache()) {
            let lookups = (h - h0) + (m - m0);
            let ratio = if lookups > 0.0 {
                (h - h0) / lookups
            } else {
                0.0
            };
            layers.retain(|(n, _)| *n != "relational.cache_hit_ratio");
            layers.push(("relational.cache_hit_ratio", ratio));
        }
        layers.extend([
            (
                "relational.stream_apply_ms",
                median(&ms("relational.stream_apply")),
            ),
            (
                "relational.maintained_masks",
                median(&tr.per_op_count("relational.maintained_masks", ops)),
            ),
            (
                "relational.rebuilt_masks",
                median(&tr.per_op_count("relational.rebuilt_masks", ops)),
            ),
            ("sensitivity.s_cap", (1.0 / beta).ceil()),
            ("server.rtt_release_ms", median(&rtt)),
            ("server.rtt_update_ms", median(&update)),
            ("server.rtt_budget_ms", median(&budget)),
            ("server.release_inproc_ms", median(&inproc)),
            ("server.overhead_ms", median(&overhead)),
            (
                "server.ledger_charge_ms",
                median(&ms("server.ledger_charge")),
            ),
            ("trace.coverage", median(&coverage)),
        ]);
        layers
    }
}
