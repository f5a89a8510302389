//! `gesture-durable`: an in-process runtime with the write-ahead log at
//! `DurabilityConfig::new` defaults (fsync per flush group, 200 µs
//! group-commit window, adaptive codec, snapshot every 4096 records).
//!
//! Two writers send pre-encoded `fit_encoded` and keyed `insert` calls,
//! each acknowledged only after its record is flushed, with a 16-row and
//! a single-row `predict_encoded_many` among them, so reads share the
//! dispatcher with writes. The runtime is then shut down and reopened; the
//! reopened state must hold exactly the acknowledged fits and keys.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Instant;

use hdc_core::{BinaryHypervector, HypervectorBatch};
use hdc_serve::{DurabilityConfig, Model, Runtime, RuntimeConfig, RuntimeHandle};

use super::{
    attribute, drive, record_rss, write_spans, Args, BenchError, Caller, Phase, PhaseClock,
    SetupClock, SETUP_REPS,
};
use crate::data::{self, Gestures};
use crate::plan::{self, Op, Pools};
use crate::report::{note, Report};
use crate::trace::Tracer;

/// Nominal ops per second of each writer.
const OPS_PER_S: usize = 2000;
/// Distinct item-memory keys (half per writer).
const KEYS: u32 = 4096;
/// Writes replayed into a fresh log to measure its bytes per record.
const WAL_SAMPLE: usize = 512;

/// The pre-encoded pools: odd held-out rows are queries, even ones are
/// observed online.
struct Pool {
    queries: Vec<BinaryHypervector>,
    query_raw: Vec<Vec<f64>>,
    query_labels: Vec<usize>,
    online: Vec<BinaryHypervector>,
    online_raw: Vec<Vec<f64>>,
    online_labels: Vec<usize>,
}

fn pool(data: &Gestures, model: &Model<[f64]>) -> Pool {
    let split = |parity: usize| -> (Vec<Vec<f64>>, Vec<usize>) {
        data.test
            .iter()
            .zip(&data.test_labels)
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, (row, &label))| (row.clone(), label))
            .unzip()
    };
    let (query_raw, query_labels) = split(1);
    let (online_raw, online_labels) = split(0);
    let encode = |rows: &[Vec<f64>]| {
        model
            .encode_batch(rows.iter().map(Vec::as_slice))
            .to_vectors()
    };
    Pool {
        queries: encode(&query_raw),
        online: encode(&online_raw),
        query_raw,
        query_labels,
        online_raw,
        online_labels,
    }
}

fn config(dir: &Path) -> RuntimeConfig {
    RuntimeConfig {
        durability: Some(DurabilityConfig::new(dir)),
        ..RuntimeConfig::default()
    }
}

/// Model build and training, a fresh durable runtime (store open), and
/// the first reply.
fn setup(
    clock: &mut SetupClock,
    data: &Gestures,
    dir: &Path,
    probe: &BinaryHypervector,
) -> Result<Runtime<[f64]>, BenchError> {
    let mut model = clock.time_build(|| data::gesture_model(data.classes))?;
    clock.time_fit(data.train.len(), || {
        model.fit_batch(data.train.iter().map(Vec::as_slice), &data.train_labels)
    })?;
    let runtime = Runtime::spawn(model, config(dir))?;
    runtime.handle().predict_encoded("probe", probe.clone())?;
    Ok(runtime)
}

fn trained(data: &Gestures) -> Result<Model<[f64]>, BenchError> {
    let mut model = data::gesture_model(data.classes)?;
    model.fit_batch(data.train.iter().map(Vec::as_slice), &data.train_labels)?;
    Ok(model)
}

/// Total bytes of the regular files under `dir` whose name satisfies
/// `keep`.
fn dir_bytes(dir: &Path, keep: &dyn Fn(&str) -> bool) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| {
            let path = entry.path();
            if path.is_dir() {
                dir_bytes(&path, keep)
            } else if keep(&entry.file_name().to_string_lossy()) {
                entry.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

struct DurableCaller<'a> {
    pool: &'a Pool,
    classes: usize,
    reference: &'a Model<[f64]>,
    handle: RuntimeHandle<[f64]>,
    /// In a traced run, a volatile runtime over the same model: the same
    /// fits sent there cost everything but the store.
    volatile: Option<RuntimeHandle<[f64]>>,
    writer: u32,
    /// Online rows whose fit was acknowledged.
    fitted: Vec<u32>,
    /// Key → query row of the last acknowledged insert.
    inserted: BTreeMap<u32, u32>,
    /// Acknowledged inserts, replacements included.
    acked_inserts: usize,
    mismatches: Vec<String>,
}

fn key(key: u32) -> String {
    format!("k{key}")
}

impl DurableCaller<'_> {
    fn pairs(&self, rows: &[u32]) -> Vec<(String, BinaryHypervector)> {
        rows.iter()
            .map(|&r| {
                (
                    format!("w{}q{r}", self.writer),
                    self.pool.queries[r as usize].clone(),
                )
            })
            .collect()
    }
}

impl Caller for DurableCaller<'_> {
    fn exec(&mut self, op: &Op) -> bool {
        match op {
            Op::Batch(rows) => match self.handle.predict_encoded_many(self.pairs(rows)) {
                Ok(replies) => {
                    if let Some(bad) = replies.iter().find(|p| p.label >= self.classes) {
                        note(&mut self.mismatches, || {
                            format!("label {} out of range", bad.label)
                        });
                    }
                    replies.len() == rows.len()
                }
                Err(_) => false,
            },
            Op::Single(row) => {
                let hv = self.pool.queries[*row as usize].clone();
                self.handle.predict_encoded(format!("s{row}"), hv).is_ok()
            }
            Op::Fit(row) => {
                let r = *row as usize;
                let ok = self
                    .handle
                    .fit_encoded(self.pool.online[r].clone(), self.pool.online_labels[r])
                    .is_ok();
                if ok {
                    self.fitted.push(*row);
                }
                ok
            }
            Op::Insert { key: k, row } => {
                let ok = self
                    .handle
                    .insert(key(*k), self.pool.queries[*row as usize].clone())
                    .is_ok();
                if ok {
                    self.inserted.insert(*k, *row);
                    self.acked_inserts += 1;
                }
                ok
            }
        }
    }

    /// A batch goes through the readout (and, off the request path, the
    /// encoder); a fit is repeated on the volatile runtime, whose
    /// acknowledgement is everything the durable one does minus the store.
    fn push_down(
        &mut self,
        tracer: &mut Tracer,
        request: u64,
        op: &Op,
        start: Instant,
        end: Instant,
    ) {
        match op {
            Op::Batch(rows) => {
                let hvs: Vec<BinaryHypervector> = rows
                    .iter()
                    .map(|&r| self.pool.queries[r as usize].clone())
                    .collect();
                if let Ok(batch) = HypervectorBatch::from_vectors(&hvs) {
                    tracer.span("readout", Some("runtime"), request, || {
                        self.reference.predict_encoded(&batch)
                    });
                }
                let raw: Vec<&[f64]> = rows
                    .iter()
                    .map(|&r| self.pool.query_raw[r as usize].as_slice())
                    .collect();
                tracer.span("encode", None, request, || {
                    self.reference.encode_batch(raw.iter().copied())
                });
            }
            Op::Fit(row) => {
                let Some(volatile) = &self.volatile else {
                    return;
                };
                tracer.record("durable_fit", None, request, start, end);
                let r = *row as usize;
                let hv = self.pool.online[r].clone();
                let label = self.pool.online_labels[r];
                let ok = tracer.span("volatile_fit", Some("durable_fit"), request, || {
                    volatile.fit_encoded(hv, label)
                });
                if ok.is_err() {
                    note(&mut self.mismatches, || {
                        format!("volatile fit {request} failed")
                    });
                }
            }
            Op::Single(_) | Op::Insert { .. } => {}
        }
    }
}

/// Replays the first [`WAL_SAMPLE`] writes of `ops` into a fresh log with
/// snapshots off, returning its bytes per record.
fn wal_bytes_per_record(
    data: &Gestures,
    pool: &Pool,
    ops: &[Op],
    dir: &Path,
) -> Result<f64, BenchError> {
    let _ = fs::remove_dir_all(dir);
    let mut durability = DurabilityConfig::new(dir);
    durability.snapshot_every = 0;
    let runtime = Runtime::spawn(
        trained(data)?,
        RuntimeConfig {
            durability: Some(durability),
            ..RuntimeConfig::default()
        },
    )?;
    let handle = runtime.handle();
    let mut records = 0usize;
    for op in ops {
        if records == WAL_SAMPLE {
            break;
        }
        match op {
            Op::Fit(row) => {
                let r = *row as usize;
                handle.fit_encoded(pool.online[r].clone(), pool.online_labels[r])?;
            }
            Op::Insert { key: k, row } => {
                handle.insert(key(*k), pool.queries[*row as usize].clone())?;
            }
            Op::Batch(_) | Op::Single(_) => continue,
        }
        records += 1;
    }
    drop(handle);
    let _ = runtime.shutdown();
    let bytes = dir_bytes(dir, &|name| {
        name.starts_with("wal-") && name.ends_with(".log")
    });
    let _ = fs::remove_dir_all(dir);
    Ok(bytes as f64 / records.max(1) as f64)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns an error when a runtime cannot be set up, queried or reopened.
pub fn run(args: &Args) -> Result<Report, BenchError> {
    let data = data::gestures();
    let mut report = Report::default();
    let reference = trained(&data)?;
    let pool = pool(&data, &reference);
    let pools = Pools {
        queries: pool.queries.len(),
        online: pool.online.len(),
        keys: KEYS,
    };
    let plan = plan::durable(args.seed, pools, args.ops(OPS_PER_S));

    let root: PathBuf =
        args.out_dir
            .join(format!("store-{}-seed{}", args.workload.name(), args.seed));
    let _ = fs::remove_dir_all(&root);
    let mut clock = SetupClock::default();
    let mut setups = 0usize;
    let runtime = clock.repeat(
        |clock| {
            setups += 1;
            setup(
                clock,
                &data,
                &root.join(format!("setup{setups}")),
                &pool.queries[0],
            )
        },
        |runtime| {
            let _ = runtime.shutdown();
        },
    )?;
    let dir = root.join(format!("setup{setups}"));
    for i in 1..setups {
        let _ = fs::remove_dir_all(root.join(format!("setup{i}")));
    }
    report.attempted += SETUP_REPS as u64;
    clock.summarize(&mut report);

    let volatile = if args.trace {
        Some(Runtime::spawn(trained(&data)?, RuntimeConfig::default())?)
    } else {
        None
    };

    let handle = runtime.handle();
    let phase_clock = PhaseClock::start();
    let origin = phase_clock.origin();
    let callers: Vec<(Phase, DurableCaller)> = thread::scope(|scope| {
        let workers: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(id, ops)| {
                let mut caller = DurableCaller {
                    pool: &pool,
                    classes: data.classes,
                    reference: &reference,
                    handle: handle.clone(),
                    volatile: volatile.as_ref().map(Runtime::handle),
                    writer: id as u32,
                    fitted: Vec::new(),
                    inserted: BTreeMap::new(),
                    acked_inserts: 0,
                    mismatches: Vec::new(),
                };
                scope.spawn(move || {
                    let phase = drive(&mut caller, id, ops, origin, args.trace, "runtime");
                    (phase, caller)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a caller thread panicked"))
            .collect()
    });
    let windows = phase_clock.finish(&mut report);

    let mut phase = Phase::new(origin);
    let mut fitted = Vec::new();
    let mut inserted = BTreeMap::new();
    let mut acked = 0;
    for (caller_phase, caller) in callers {
        phase.merge(caller_phase);
        acked += caller.fitted.len() + caller.acked_inserts;
        fitted.extend(caller.fitted);
        inserted.extend(caller.inserted);
        report.mismatches.extend(caller.mismatches);
    }
    phase.summarize(&mut report, args.trace, &windows);
    record_rss(&mut report)?;
    let stats = handle.stats()?;
    report.attempted += 1;
    drop(handle);
    let (_, learner) = runtime.shutdown();
    report.check(
        learner.observed() == data.train.len() + fitted.len(),
        || {
            format!(
                "trainer observed {}, expected {} training rows + {} acked fits",
                learner.observed(),
                data.train.len(),
                fitted.len()
            )
        },
    );
    report.diagnostic(
        "disk_bytes_per_write",
        dir_bytes(&dir, &|_| true) as f64 / acked.max(1) as f64,
        "bytes",
    );

    // Reopen: recovery must hold exactly the acknowledged fits and keys.
    let model = trained(&data)?;
    let reopen_start = Instant::now();
    let reopened = Runtime::spawn(model, config(&dir))?;
    let recover_s = reopen_start.elapsed().as_secs_f64();
    let handle = reopened.handle();
    let snapshot = handle.snapshot()?;
    let want_items: BTreeMap<String, &BinaryHypervector> = inserted
        .iter()
        .map(|(&k, &row)| (key(k), &pool.queries[row as usize]))
        .collect();
    let got_items: BTreeMap<String, &BinaryHypervector> = snapshot
        .items()
        .iter()
        .map(|(k, hv)| (k.clone(), hv))
        .collect();
    report.check(got_items == want_items, || {
        format!(
            "reopened store holds {} keys, {} were acknowledged (or values differ)",
            got_items.len(),
            want_items.len()
        )
    });
    report.check(
        snapshot.observed() == (data.train.len() + fitted.len()) as u64,
        || {
            format!(
                "reopened trainer observed {}, {} were acknowledged",
                snapshot.observed(),
                data.train.len() + fitted.len()
            )
        },
    );
    let mut updated = data::gesture_model(data.classes)?;
    let fitted_raw = fitted
        .iter()
        .map(|&r| pool.online_raw[r as usize].as_slice());
    let fitted_labels = fitted.iter().map(|&r| pool.online_labels[r as usize]);
    updated.fit_batch(
        data.train.iter().map(Vec::as_slice).chain(fitted_raw),
        &data
            .train_labels
            .iter()
            .copied()
            .chain(fitted_labels)
            .collect::<Vec<_>>(),
    )?;
    let want = updated.predict_batch(pool.query_raw.iter().map(Vec::as_slice));
    handle.refresh()?;
    let served = handle.predict_encoded_many(
        pool.queries
            .iter()
            .enumerate()
            .map(|(i, hv)| (format!("v{i}"), hv.clone()))
            .collect(),
    )?;
    report.attempted += 3;
    let served: Vec<usize> = served.iter().map(|p| p.label).collect();
    report.check(served == want, || {
        let differ = served.iter().zip(&want).filter(|(a, b)| a != b).count();
        format!("{differ} reopened predictions differ from the reference")
    });
    report.diagnostic(
        "accuracy",
        hdc_learn::metrics::accuracy(&served, &pool.query_labels),
        "ratio",
    );
    if !args.trace {
        report.diagnostic("store.recover_s", recover_s, "s");
    }
    drop(handle);
    let _ = reopened.shutdown();
    let _ = fs::remove_dir_all(&dir);

    if args.trace {
        report.metric(
            "runtime.mean_batch_size",
            stats.metrics.mean_batch_size,
            "rows",
        );
        report.metric("runtime.batches", stats.metrics.batches as f64, "count");
        let tracer = &phase.tracer;
        let readout = tracer.median("readout");
        let tree = [
            ("runtime", None, tracer.median("runtime")),
            ("readout", Some("runtime"), readout),
            ("durable_fit", None, tracer.median("durable_fit")),
            (
                "volatile_fit",
                Some("durable_fit"),
                tracer.median("volatile_fit"),
            ),
        ];
        attribute(
            &mut report,
            &tree,
            &[
                ("runtime", "runtime.self_us"),
                ("durable_fit", "store.write_self_us"),
            ],
        );
        report.metric("readout.us_per_row", readout as f64 / 16.0 / 1e3, "us");
        report.metric(
            "encode.us_per_row",
            tracer.median("encode") as f64 / 16.0 / 1e3,
            "us",
        );
        report.metric("store.recover_s", recover_s, "s");
        report.metric(
            "store.wal_bytes_per_record",
            wal_bytes_per_record(&data, &pool, &plan[0], &root.join("wal-sample"))?,
            "bytes",
        );
        write_spans(args, tracer)?;
    }
    if let Some(volatile) = volatile {
        let _ = volatile.shutdown();
    }
    let _ = fs::remove_dir_all(&root);
    Ok(report)
}
