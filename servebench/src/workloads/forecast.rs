//! `forecast-online`: in-process online regression on the Beijing
//! surrogate with raw inputs.
//!
//! One caller alternates a 64-row raw `predict_value_many` with a raw
//! `fit_value`, so encoding and the regression readout dominate and no
//! wire or store is involved. The timed phase ends when `refresh` has
//! drained every queued fit; the held-out split is then served and must
//! match a reference `Model` fed the same observations bit for bit.

use std::time::Instant;

use hdc_core::HypervectorBatch;
use hdc_serve::{Model, Runtime, RuntimeConfig, RuntimeHandle};

use super::{
    attribute, drive, record_rss, write_spans, Args, BenchError, Caller, PhaseClock, SetupClock,
    SETUP_REPS,
};
use crate::data::{self, Forecast};
use crate::plan::{self, Op, Pools};
use crate::report::{note, Report};
use crate::trace::Tracer;

/// Nominal predict/fit rounds per second.
const ROUNDS_PER_S: usize = 670;

struct Instance {
    runtime: Runtime<[f64]>,
}

fn teardown(instance: Instance) {
    let _ = instance.runtime.shutdown();
}

/// Model build and training, runtime spawn, and the first reply.
fn setup(clock: &mut SetupClock, data: &Forecast) -> Result<Instance, BenchError> {
    let mut model = clock.time_build(|| data::forecast_model(data))?;
    clock.time_fit(data.train.len(), || {
        data::fit_forecast(&mut model, &data.train, &data.train_values)
    })?;
    let runtime = Runtime::spawn(model, RuntimeConfig::default())?;
    runtime
        .handle()
        .predict_value("probe", data.heldout[0].as_slice())?;
    Ok(Instance { runtime })
}

struct ForecastCaller<'a> {
    data: &'a Forecast,
    reference: &'a Model<[f64]>,
    handle: RuntimeHandle<[f64]>,
    /// Online rows whose fit was accepted, in order.
    fitted: Vec<u32>,
    mismatches: Vec<String>,
}

fn key(row: u32) -> String {
    format!("h{row}")
}

impl ForecastCaller<'_> {
    fn check(&mut self, value: f64) {
        let (low, high) = self.data.range;
        if !(low..=high).contains(&value) {
            note(&mut self.mismatches, || {
                format!("served value {value} outside the label range")
            });
        }
    }

    fn rows(&self, rows: &[u32]) -> Vec<&[f64]> {
        rows.iter()
            .map(|&r| self.data.heldout[r as usize].as_slice())
            .collect()
    }
}

impl Caller for ForecastCaller<'_> {
    fn exec(&mut self, op: &Op) -> bool {
        match op {
            Op::Batch(rows) => {
                let inputs = self.rows(rows);
                let served = self
                    .handle
                    .predict_value_many(rows.iter().map(|&r| key(r)).zip(inputs));
                match served {
                    Ok(values) => {
                        for v in &values {
                            self.check(v.value);
                        }
                        values.len() == rows.len()
                    }
                    Err(_) => false,
                }
            }
            Op::Single(row) => {
                let input = self.data.heldout[*row as usize].as_slice();
                match self.handle.predict_value(key(*row), input) {
                    Ok(v) => {
                        self.check(v.value);
                        true
                    }
                    Err(_) => false,
                }
            }
            Op::Fit(row) => {
                let r = *row as usize;
                let ok = self
                    .handle
                    .fit_value(self.data.online[r].as_slice(), self.data.online_values[r])
                    .is_ok();
                if ok {
                    self.fitted.push(*row);
                }
                ok
            }
            Op::Insert { .. } => false,
        }
    }

    /// The encoder and the readout under the runtime handle's call.
    fn push_down(&mut self, tracer: &mut Tracer, request: u64, op: &Op, _: Instant, _: Instant) {
        let Op::Batch(rows) = op else {
            return;
        };
        let inputs = self.rows(rows);
        let batch: HypervectorBatch = tracer.span("encode", Some("runtime"), request, || {
            self.reference.encode_batch(inputs.iter().copied())
        });
        tracer.span("readout", Some("runtime"), request, || {
            self.reference.predict_values_encoded(&batch)
        });
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns an error when the runtime cannot be set up or queried.
pub fn run(args: &Args) -> Result<Report, BenchError> {
    let data = data::forecast();
    let mut report = Report::default();
    let mut reference = data::forecast_model(&data)?;
    data::fit_forecast(&mut reference, &data.train, &data.train_values)?;
    let pools = Pools {
        queries: data.heldout.len(),
        online: data.online.len(),
        keys: 1,
    };
    let plan = plan::forecast(args.seed, pools, args.ops(ROUNDS_PER_S));

    let mut clock = SetupClock::default();
    let instance = clock.repeat(|clock| setup(clock, &data), teardown)?;
    report.attempted += SETUP_REPS as u64;
    clock.summarize(&mut report);

    let handle = instance.runtime.handle();
    let phase_clock = PhaseClock::start();
    let origin = phase_clock.origin();
    let mut caller = ForecastCaller {
        data: &data,
        reference: &reference,
        handle: handle.clone(),
        fitted: Vec::new(),
        mismatches: Vec::new(),
    };
    let mut phase = drive(&mut caller, 0, &plan[0], origin, args.trace, "runtime");
    // The phase ends when every queued fit is folded in and published.
    let refreshed = handle.refresh().is_ok();
    phase.untraced.mark(Instant::now(), refreshed);
    let windows = phase_clock.finish(&mut report);
    phase.summarize(&mut report, args.trace, &windows);
    record_rss(&mut report)?;
    report.mismatches.append(&mut caller.mismatches);

    // Bit-identity of the held-out split against a reference fed the same
    // observations (fits commute, so their order does not matter).
    let rows: Vec<[f64; 3]> = data
        .train
        .iter()
        .copied()
        .chain(caller.fitted.iter().map(|&r| data.online[r as usize]))
        .collect();
    let values: Vec<f64> = data
        .train_values
        .iter()
        .copied()
        .chain(
            caller
                .fitted
                .iter()
                .map(|&r| data.online_values[r as usize]),
        )
        .collect();
    let online_fits = caller.fitted.len();
    drop(caller);
    let mut updated = data::forecast_model(&data)?;
    data::fit_forecast(&mut updated, &rows, &values)?;
    let heldout: Vec<&[f64]> = data.heldout.iter().map(|r| r.as_slice()).collect();
    let want = updated.predict_value_batch(heldout.iter().copied());
    let served = handle.predict_value_many(
        heldout
            .iter()
            .enumerate()
            .map(|(i, &row)| (key(i as u32), row)),
    )?;
    report.attempted += 1;
    let served: Vec<f64> = served.iter().map(|v| v.value).collect();
    let differ = served
        .iter()
        .zip(&want)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    report.check(differ == 0 && served.len() == want.len(), || {
        format!(
            "{differ} of {} held-out values differ from the reference",
            want.len()
        )
    });
    report.diagnostic(
        "mae",
        hdc_learn::metrics::mae(&served, &data.heldout_values),
        "C",
    );
    report.diagnostic("online_fits", online_fits as f64, "count");

    if args.trace {
        let stats = handle.stats()?;
        report.metric(
            "runtime.mean_batch_size",
            stats.metrics.mean_batch_size,
            "rows",
        );
        report.metric("runtime.batches", stats.metrics.batches as f64, "count");
        let tracer = &phase.tracer;
        let (encode, readout) = (tracer.median("encode"), tracer.median("readout"));
        let tree = [
            ("runtime", None, tracer.median("runtime")),
            ("encode", Some("runtime"), encode),
            ("readout", Some("runtime"), readout),
        ];
        attribute(&mut report, &tree, &[("runtime", "runtime.self_us")]);
        report.metric("encode.us_per_row", encode as f64 / 64.0 / 1e3, "us");
        report.metric("readout.us_per_row", readout as f64 / 64.0 / 1e3, "us");
        write_spans(args, tracer)?;
    }

    drop(handle);
    teardown(instance);
    Ok(report)
}
