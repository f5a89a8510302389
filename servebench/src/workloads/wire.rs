//! `gesture-wire`: loopback-TCP classification against `Server` over a
//! default `Runtime`.
//!
//! Queries are pre-encoded, so wire, server, runtime queue and readout do
//! all the work. One connection sends 64-row `predict_batch` requests; the
//! other sends single-row `predict` requests, which expose the batch-close
//! wait, and every eighth of them a keyed `insert`.

use std::collections::BTreeSet;
use std::thread;
use std::time::Instant;

use hdc_core::{BinaryHypervector, HypervectorBatch};
use hdc_serve::wire::{self, Request, Response};
use hdc_serve::{BlockingClient, Model, Runtime, RuntimeConfig, RuntimeHandle, Server};

use super::{
    attribute, drive, first_pass_accuracy, record_rss, write_spans, Args, BenchError, Caller,
    Phase, PhaseClock, SetupClock, SETUP_REPS,
};
use crate::data::{self, Gestures};
use crate::plan::{self, Op, Pools};
use crate::report::{note, Report};
use crate::stats::median_ns;
use crate::trace::Tracer;

/// Nominal batch ops per second; the single-row caller gets twice as
/// many ops, so both finish at about the same time.
const BATCHES_PER_S: usize = 760;
const SINGLES_PER_S: usize = 1500;
/// Distinct item-memory keys the inserts draw from.
const KEYS: u32 = 4096;

struct Instance {
    runtime: Runtime<[f64]>,
    server: Server,
    clients: Vec<BlockingClient>,
}

fn teardown(instance: Instance) {
    drop(instance.clients);
    instance.server.shutdown();
    let _ = instance.runtime.shutdown();
}

/// Model build and training, runtime spawn, server bind, both
/// connections, and the first reply.
fn setup(
    clock: &mut SetupClock,
    data: &Gestures,
    probe: &BinaryHypervector,
) -> Result<Instance, BenchError> {
    let mut model = clock.time_build(|| data::gesture_model(data.classes))?;
    clock.time_fit(data.train.len(), || {
        model.fit_batch(data.train.iter().map(Vec::as_slice), &data.train_labels)
    })?;
    let runtime = Runtime::spawn(model, RuntimeConfig::default())?;
    let server = Server::spawn("127.0.0.1:0", runtime.handle())?;
    let mut clients = vec![
        BlockingClient::connect(server.local_addr())?,
        BlockingClient::connect(server.local_addr())?,
    ];
    clients[0].predict("probe", probe)?;
    Ok(Instance {
        runtime,
        server,
        clients,
    })
}

/// One connection's caller.
struct WireCaller<'a> {
    client: &'a mut BlockingClient,
    queries: &'a [BinaryHypervector],
    raw: &'a [&'a [f64]],
    expected: &'a [usize],
    reference: &'a Model<[f64]>,
    handle: RuntimeHandle<[f64]>,
    /// Served labels of the batch stream, in stream order.
    served: Vec<u32>,
    /// Keys whose insert was acknowledged.
    inserted: BTreeSet<u32>,
    mismatches: Vec<String>,
    request_bytes: Vec<u64>,
}

fn key(row: u32) -> String {
    format!("q{row}")
}

impl WireCaller<'_> {
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

impl Caller for WireCaller<'_> {
    fn exec(&mut self, op: &Op) -> bool {
        match op {
            Op::Batch(rows) => match self.client.predict_batch(self.pairs(rows)) {
                Ok(replies) => {
                    for (&row, reply) in rows.iter().zip(&replies) {
                        self.check(row, reply.label);
                        self.served.push(reply.label as u32);
                    }
                    replies.len() == rows.len()
                }
                Err(_) => false,
            },
            Op::Single(row) => {
                match self
                    .client
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
                    .client
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

    /// The four wire codec calls on in-memory buffers, the runtime handle,
    /// the readout, and (off the request path) the encoder.
    fn push_down(&mut self, tracer: &mut Tracer, request: u64, op: &Op, _: Instant, _: Instant) {
        let Op::Batch(rows) = op else {
            return;
        };
        let pairs = self.pairs(rows);
        let message = Request::PredictBatch {
            pairs: pairs.clone(),
        };
        let mut frame = Vec::new();
        let encoded = tracer.span("wire.request_encode", Some("server"), request, || {
            wire::write_request(&mut frame, &message)
        });
        self.request_bytes.push(frame.len() as u64);
        let decoded = tracer.span("wire.request_decode", Some("server"), request, || {
            wire::read_request(&mut frame.as_slice())
        });
        let replies = tracer.span("runtime", Some("server"), request, || {
            self.handle.predict_encoded_many(pairs)
        });
        let hvs: Vec<BinaryHypervector> = rows
            .iter()
            .map(|&r| self.queries[r as usize].clone())
            .collect();
        let labels = match HypervectorBatch::from_vectors(&hvs) {
            Ok(batch) => tracer.span("readout", Some("runtime"), request, || {
                self.reference.predict_encoded(&batch)
            }),
            Err(_) => Vec::new(),
        };
        let answer = Response::Labels {
            predictions: labels.iter().map(|&l| (l as u32, 0)).collect(),
        };
        let mut reply = Vec::new();
        let reply_encoded = tracer.span("wire.response_encode", Some("server"), request, || {
            wire::write_response(&mut reply, &answer)
        });
        let reply_decoded = tracer.span("wire.response_decode", Some("server"), request, || {
            wire::read_response(&mut reply.as_slice())
        });
        let raw: Vec<&[f64]> = rows.iter().map(|&r| self.raw[r as usize]).collect();
        tracer.span("encode", None, request, || {
            self.reference.encode_batch(raw.iter().copied())
        });
        let round_trips = encoded.is_ok()
            && reply_encoded.is_ok()
            && matches!(decoded, Ok(Some(ref m)) if *m == message)
            && matches!(reply_decoded, Ok(Some(ref r)) if *r == answer);
        if !round_trips || labels.len() != rows.len() {
            note(&mut self.mismatches, || {
                format!("request {request}: wire frames or readout did not round-trip")
            });
        }
        match replies {
            Ok(replies) => {
                for ((&row, reply), &label) in rows.iter().zip(&replies).zip(&labels) {
                    self.check(row, reply.label);
                    self.check(row, label);
                }
            }
            Err(error) => note(&mut self.mismatches, || {
                format!("request {request}: {error}")
            }),
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns an error when the stack cannot be set up or queried.
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
    // At least one full pass over the queries, for the accuracy figure.
    let batches = args.ops(BATCHES_PER_S).max(queries.len().div_ceil(64));
    let plan = plan::wire(args.seed, pools, batches, args.ops(SINGLES_PER_S));

    let mut clock = SetupClock::default();
    let mut instance = clock.repeat(|clock| setup(clock, &data, &queries[0]), teardown)?;
    report.attempted += SETUP_REPS as u64;
    clock.summarize(&mut report);

    let handle = instance.runtime.handle();
    let phase_clock = PhaseClock::start();
    let origin = phase_clock.origin();
    let callers: Vec<(Phase, WireCaller)> = thread::scope(|scope| {
        let workers: Vec<_> = instance
            .clients
            .iter_mut()
            .zip(&plan)
            .enumerate()
            .map(|(id, (client, ops))| {
                let mut caller = WireCaller {
                    client,
                    queries: &queries,
                    raw: &raw,
                    expected: &expected,
                    reference: &reference,
                    handle: handle.clone(),
                    served: Vec::new(),
                    inserted: BTreeSet::new(),
                    mismatches: Vec::new(),
                    request_bytes: Vec::new(),
                };
                scope.spawn(move || {
                    let phase = drive(&mut caller, id, ops, origin, args.trace, "server");
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
    let mut served = Vec::new();
    let mut inserted = BTreeSet::new();
    let mut request_bytes = Vec::new();
    for (caller_phase, caller) in callers {
        phase.merge(caller_phase);
        served.extend(caller.served);
        inserted.extend(caller.inserted);
        request_bytes.extend(caller.request_bytes);
        report.mismatches.extend(caller.mismatches);
    }
    phase.summarize(&mut report, args.trace, &windows);
    record_rss(&mut report)?;

    let expected_accuracy = hdc_learn::metrics::accuracy(&expected, &data.test_labels);
    first_pass_accuracy(
        &mut report,
        &plan[0],
        &served,
        &data.test_labels,
        expected_accuracy,
    );

    let stats = handle.stats()?;
    report.attempted += 1;
    report.check(stats.keys == inserted.len() as u64, || {
        format!(
            "runtime holds {} keys, {} were inserted",
            stats.keys,
            inserted.len()
        )
    });

    if args.trace {
        report.metric(
            "runtime.mean_batch_size",
            stats.metrics.mean_batch_size,
            "rows",
        );
        report.metric("runtime.batches", stats.metrics.batches as f64, "count");
        let tracer = &phase.tracer;
        let (req_enc, req_dec, resp_enc, resp_dec) = (
            tracer.median("wire.request_encode"),
            tracer.median("wire.request_decode"),
            tracer.median("wire.response_encode"),
            tracer.median("wire.response_decode"),
        );
        report.metric("wire.encode_us", (req_enc + resp_enc) as f64 / 1e3, "us");
        report.metric("wire.decode_us", (req_dec + resp_dec) as f64 / 1e3, "us");
        report.metric(
            "wire.request_bytes",
            median_ns(&request_bytes) as f64,
            "bytes",
        );
        let readout = tracer.median("readout");
        let tree = [
            ("server", None, tracer.median("server")),
            ("wire.request_encode", Some("server"), req_enc),
            ("wire.request_decode", Some("server"), req_dec),
            ("wire.response_encode", Some("server"), resp_enc),
            ("wire.response_decode", Some("server"), resp_dec),
            ("runtime", Some("server"), tracer.median("runtime")),
            ("readout", Some("runtime"), readout),
        ];
        attribute(
            &mut report,
            &tree,
            &[("server", "server.self_us"), ("runtime", "runtime.self_us")],
        );
        report.metric("readout.us_per_row", readout as f64 / 64.0 / 1e3, "us");
        report.metric(
            "encode.us_per_row",
            tracer.median("encode") as f64 / 64.0 / 1e3,
            "us",
        );
        write_spans(args, tracer)?;
    }

    drop(handle);
    teardown(instance);
    Ok(report)
}
