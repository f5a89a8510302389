//! `gesture-cluster`: a `ClusterRouter` over three `LocalShard` runtimes
//! in one process.
//!
//! The only workload that runs the ring split and the fan-out: one caller
//! sends 64-row keyed `predict_batch` calls, routed `insert`s and
//! single-row `predict`s. Every 64-row batch splits into one sub-batch
//! per owning shard, each below the runtime's `max_batch`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use hdc_core::{BinaryHypervector, HypervectorBatch};
use hdc_serve::{
    ClusterRouter, LocalShard, Model, Pipeline, RingConfig, Runtime, RuntimeConfig, RuntimeHandle,
    ShardBackend,
};

use super::{
    attribute, drive, first_pass_accuracy, record_rss, write_spans, Args, BenchError, Caller,
    PhaseClock, SetupClock, SETUP_REPS,
};
use crate::data::{self, Gestures};
use crate::plan::{self, Op, Pools};
use crate::report::{note, Report};
use crate::trace::Tracer;

/// Nominal ops per second.
const OPS_PER_S: usize = 1200;
/// Shards behind the router.
const SHARDS: usize = 3;
/// Seed of the router's ring.
const RING_SEED: u64 = 0xC1A5;
/// Distinct item-memory keys the inserts draw from.
const KEYS: u32 = 4096;

struct Instance {
    runtimes: Vec<Runtime<[f64]>>,
    router: ClusterRouter,
}

fn teardown(instance: Instance) {
    drop(instance.router);
    for runtime in instance.runtimes {
        let _ = runtime.shutdown();
    }
}

/// Model build and training, one copy per shard, three runtime spawns,
/// the router, and the first reply.
fn setup(
    clock: &mut SetupClock,
    data: &Gestures,
    probe: &BinaryHypervector,
) -> Result<Instance, BenchError> {
    let mut model = clock.time_build(|| data::gesture_model(data.classes))?;
    clock.time_fit(data.train.len(), || {
        model.fit_batch(data.train.iter().map(Vec::as_slice), &data.train_labels)
    })?;
    let snapshot = model.snapshot();
    let mut models = vec![model];
    for _ in 1..SHARDS {
        models.push(Pipeline::from_snapshot::<[f64]>(&snapshot)?);
    }
    let runtimes = models
        .into_iter()
        .enumerate()
        .map(|(i, model)| {
            Runtime::spawn(
                model,
                RuntimeConfig {
                    name: format!("shard{i}"),
                    ..RuntimeConfig::default()
                },
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let backends: Vec<Box<dyn ShardBackend>> = runtimes
        .iter()
        .map(|r| Box::new(LocalShard::new(r.handle())) as Box<dyn ShardBackend>)
        .collect();
    let mut router = ClusterRouter::new(backends, RingConfig::default(), RING_SEED)?;
    router.predict("probe", probe)?;
    Ok(Instance { runtimes, router })
}

struct ClusterCaller<'a> {
    router: &'a mut ClusterRouter,
    /// The shards' handles, in router id order.
    shards: Vec<RuntimeHandle<[f64]>>,
    queries: &'a [BinaryHypervector],
    raw: &'a [&'a [f64]],
    expected: &'a [usize],
    reference: &'a Model<[f64]>,
    /// Served labels of the batch stream, in stream order.
    served: Vec<u32>,
    /// Keys whose insert was acknowledged.
    inserted: BTreeSet<u32>,
    mismatches: Vec<String>,
    /// Readout time per row of each sampled slowest sub-batch (ns).
    readout_ns_per_row: Vec<f64>,
    /// Sub-batch calls of the sampled batches.
    shard_calls: usize,
    /// Rows of the sampled batches.
    sampled_rows: usize,
}

fn key(row: u32) -> String {
    format!("q{row}")
}

impl ClusterCaller<'_> {
    fn check(&mut self, row: u32, label: usize) {
        let want = self.expected[row as usize];
        if label != want {
            note(&mut self.mismatches, || {
                format!("row {row}: served label {label}, in-process {want}")
            });
        }
    }

    fn pairs(&self, rows: &[u32]) -> Vec<(String, BinaryHypervector)> {
        rows.iter()
            .map(|&r| (key(r), self.queries[r as usize].clone()))
            .collect()
    }
}

impl Caller for ClusterCaller<'_> {
    fn exec(&mut self, op: &Op) -> bool {
        match op {
            Op::Batch(rows) => {
                let pairs = self.pairs(rows);
                match self.router.predict_batch(&pairs) {
                    Ok(replies) => {
                        for (&row, reply) in rows.iter().zip(&replies) {
                            self.check(row, reply.label);
                            self.served.push(reply.label as u32);
                        }
                        replies.len() == rows.len()
                    }
                    Err(_) => false,
                }
            }
            Op::Single(row) => {
                match self
                    .router
                    .predict(&key(*row), &self.queries[*row as usize])
                {
                    Ok(reply) => {
                        self.check(*row, reply.label);
                        true
                    }
                    Err(_) => false,
                }
            }
            Op::Insert { key, row } => {
                let acked = self
                    .router
                    .insert(&format!("k{key}"), &self.queries[*row as usize])
                    .is_ok();
                if acked {
                    self.inserted.insert(*key);
                }
                acked
            }
            Op::Fit(_) => false,
        }
    }

    /// Each owner's sub-batch straight to its runtime handle, one after
    /// another; the slowest is the `runtime` boundary under the router.
    /// Then the readout of that sub-batch, the whole batch on a single
    /// runtime for comparison, and (off the request path) the encoder.
    fn push_down(&mut self, tracer: &mut Tracer, request: u64, op: &Op, _: Instant, _: Instant) {
        let Op::Batch(rows) = op else {
            return;
        };
        let mut owned: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for &row in rows {
            owned
                .entry(self.router.shard_of(&key(row)))
                .or_default()
                .push(row);
        }
        self.sampled_rows += rows.len();
        let mut slowest: Option<(Instant, Instant, Vec<u32>)> = None;
        for (&shard, sub) in &owned {
            let pairs = self.pairs(sub);
            let start = Instant::now();
            let replies = self.shards[shard].predict_encoded_many(pairs);
            let end = Instant::now();
            match replies {
                Ok(replies) => {
                    for (&row, reply) in sub.iter().zip(&replies) {
                        self.check(row, reply.label);
                    }
                }
                Err(error) => note(&mut self.mismatches, || format!("shard {shard}: {error}")),
            }
            if slowest
                .as_ref()
                .map_or(true, |(s, e, _)| end - start > *e - *s)
            {
                slowest = Some((start, end, sub.clone()));
            }
        }
        if let Some((start, end, sub)) = slowest {
            tracer.record("runtime", Some("cluster"), request, start, end);
            let hvs: Vec<BinaryHypervector> = sub
                .iter()
                .map(|&r| self.queries[r as usize].clone())
                .collect();
            if let Ok(batch) = HypervectorBatch::from_vectors(&hvs) {
                let start = Instant::now();
                tracer.span("readout", Some("runtime"), request, || {
                    self.reference.predict_encoded(&batch)
                });
                self.readout_ns_per_row
                    .push(start.elapsed().as_nanos() as f64 / sub.len() as f64);
            }
            self.shard_calls += owned.len();
        }
        let pairs = self.pairs(rows);
        let whole = tracer.span("whole_batch", None, request, || {
            self.shards[0].predict_encoded_many(pairs)
        });
        if whole.is_err() {
            note(&mut self.mismatches, || {
                format!("request {request}: whole batch failed")
            });
        }
        let raw: Vec<&[f64]> = rows.iter().map(|&r| self.raw[r as usize]).collect();
        tracer.span("encode", None, request, || {
            self.reference.encode_batch(raw.iter().copied())
        });
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns an error when the cluster cannot be set up or queried.
pub fn run(args: &Args) -> Result<Report, BenchError> {
    let data = data::gestures();
    let mut report = Report::default();
    let mut reference = data::gesture_model(data.classes)?;
    reference.fit_batch(data.train.iter().map(Vec::as_slice), &data.train_labels)?;
    let raw: Vec<&[f64]> = data.test.iter().map(Vec::as_slice).collect();
    let queries = reference.encode_batch(raw.iter().copied()).to_vectors();
    let expected = reference.predict_batch(raw.iter().copied());

    let pools = Pools {
        queries: queries.len(),
        online: 1,
        keys: KEYS,
    };
    // At least one full pass over the queries (five of every eight ops
    // are 64-row batches), for the accuracy figure.
    let ops = args
        .ops(OPS_PER_S)
        .max(queries.len().div_ceil(64) * 8 / 5 + 8);
    let plan = plan::cluster(args.seed, pools, ops);

    let mut clock = SetupClock::default();
    let mut instance = clock.repeat(|clock| setup(clock, &data, &queries[0]), teardown)?;
    report.attempted += SETUP_REPS as u64;
    clock.summarize(&mut report);

    let phase_clock = PhaseClock::start();
    let origin = phase_clock.origin();
    let mut caller = ClusterCaller {
        shards: instance.runtimes.iter().map(Runtime::handle).collect(),
        router: &mut instance.router,
        queries: &queries,
        raw: &raw,
        expected: &expected,
        reference: &reference,
        served: Vec::new(),
        inserted: BTreeSet::new(),
        mismatches: Vec::new(),
        readout_ns_per_row: Vec::new(),
        shard_calls: 0,
        sampled_rows: 0,
    };
    let phase = drive(&mut caller, 0, &plan[0], origin, args.trace, "cluster");
    let windows = phase_clock.finish(&mut report);
    phase.summarize(&mut report, args.trace, &windows);
    record_rss(&mut report)?;
    report.mismatches.append(&mut caller.mismatches);
    let expected_accuracy = hdc_learn::metrics::accuracy(&expected, &data.test_labels);
    first_pass_accuracy(
        &mut report,
        &plan[0],
        &caller.served,
        &data.test_labels,
        expected_accuracy,
    );

    // Every shard must hold exactly the acknowledged keys the ring gives it.
    let mut want: BTreeMap<usize, u64> = BTreeMap::new();
    for &k in &caller.inserted {
        *want
            .entry(caller.router.shard_of(&format!("k{k}")))
            .or_default() += 1;
    }
    let stats = caller.router.shard_stats()?;
    report.attempted += 1;
    for (id, shard) in &stats {
        let expect = want.get(id).copied().unwrap_or(0);
        report.check(shard.keys == expect, || {
            format!(
                "shard {id} holds {} keys, the ring assigns it {expect}",
                shard.keys
            )
        });
    }

    if args.trace {
        let requests: u64 = stats.iter().map(|(_, s)| s.metrics.requests).sum();
        let batches: u64 = stats.iter().map(|(_, s)| s.metrics.batches).sum();
        report.metric(
            "runtime.mean_batch_size",
            requests as f64 / batches.max(1) as f64,
            "rows",
        );
        report.metric("runtime.batches", batches as f64, "count");
        let per_shard: Vec<f64> = stats
            .iter()
            .map(|(_, s)| s.metrics.mean_batch_size)
            .collect();
        report.metric(
            "cluster.shard_mean_batch_size",
            per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64,
            "rows",
        );
        report.metric(
            "cluster.rows_per_shard_call",
            caller.sampled_rows as f64 / caller.shard_calls.max(1) as f64,
            "rows",
        );
        let tracer = &phase.tracer;
        let tree = [
            ("cluster", None, tracer.median("cluster")),
            ("runtime", Some("cluster"), tracer.median("runtime")),
            ("readout", Some("runtime"), tracer.median("readout")),
        ];
        attribute(
            &mut report,
            &tree,
            &[
                ("cluster", "cluster.self_us"),
                ("runtime", "runtime.self_us"),
            ],
        );
        report.metric(
            "readout.us_per_row",
            crate::stats::median(&caller.readout_ns_per_row) / 1e3,
            "us",
        );
        report.metric(
            "cluster.whole_batch_us",
            tracer.median("whole_batch") as f64 / 1e3,
            "us",
        );
        report.metric(
            "encode.us_per_row",
            tracer.median("encode") as f64 / 64.0 / 1e3,
            "us",
        );
        write_spans(args, tracer)?;
    }

    drop(caller);
    teardown(instance);
    Ok(report)
}
