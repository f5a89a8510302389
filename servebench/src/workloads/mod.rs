//! The four workloads and the closed-loop machinery they share.
//!
//! Every workload runs the same way: build its fixed data, pre-encode
//! what it serves pre-encoded, set the serving stack up [`SETUP_REPS`]
//! times (reporting the median), drive its seeded plan through at most two
//! closed-loop callers, then check every output against an in-process
//! reference. A traced run drives the first half of the plan untraced and
//! the second half traced, and sends every [`SAMPLE_EVERY`]-th traced op
//! of each kind down through the lower public boundaries.

pub mod cluster;
pub mod durable;
pub mod forecast;
pub mod wire;

use std::error::Error;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::host::{self, CpuTicks, StealMonitor};
use crate::plan::Op;
use crate::report::Report;
use crate::stats::{at_zero_steal, median, median_ns, percentile_ns};
use crate::trace::{self_times, Tracer};

/// Boxed error of a workload that could not run.
pub type BenchError = Box<dyn Error + Send + Sync>;

/// Set-ups per run; `setup_s` is their time at zero steal.
pub const SETUP_REPS: usize = 7;

/// Every `SAMPLE_EVERY`-th traced op of each kind is sent down the lower
/// boundaries.
pub const SAMPLE_EVERY: usize = 4;

/// Length of the windows the timed phase is cut into, each with the share
/// of CPU time the hypervisor stole in it.
pub const STEAL_WINDOW: Duration = Duration::from_millis(250);

/// Windows with fewer ops of a kind than this give no latency point.
const MIN_WINDOW_OPS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Loopback-TCP classification against `Server`.
    GestureWire,
    /// In-process online regression with raw inputs.
    ForecastOnline,
    /// Durable writes and reads against a WAL-backed runtime.
    GestureDurable,
    /// A `ClusterRouter` over three in-process shards.
    GestureCluster,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GestureWire,
        Workload::ForecastOnline,
        Workload::GestureDurable,
        Workload::GestureCluster,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::GestureWire => "gesture-wire",
            Workload::ForecastOnline => "forecast-online",
            Workload::GestureDurable => "gesture-durable",
            Workload::GestureCluster => "gesture-cluster",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of the op plan.
    pub seed: u64,
    /// Nominal length of the timed phase; plans are sized from it.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Scratch directory for stores, results and spans.
    pub out_dir: PathBuf,
}

impl Args {
    /// Plan length for a workload that completes about `ops_per_s` ops a
    /// second on the reference host, so the phase lasts about `seconds`.
    #[must_use]
    pub fn ops(&self, ops_per_s: usize) -> usize {
        ops_per_s * self.seconds.max(1) as usize
    }
}

/// What kind of op a completion was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Batch,
    Single,
    Write,
    /// A control op that only extends the phase.
    Mark,
}

/// One successful op.
#[derive(Debug, Clone, Copy)]
struct Done {
    kind: Kind,
    /// Completion, in ns since the phase origin.
    end_ns: u64,
    /// Latency (ns).
    ns: u64,
    rows: u64,
}

/// What one caller measured.
#[derive(Debug)]
pub struct OpLog {
    origin: Instant,
    done: Vec<Done>,
    /// Ops sent.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
}

impl OpLog {
    /// An empty log whose completions count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            done: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn push(&mut self, kind: Kind, start: Instant, end: Instant, rows: usize, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            return;
        }
        self.done.push(Done {
            kind,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            ns: end.saturating_duration_since(start).as_nanos() as u64,
            rows: rows as u64,
        });
    }

    /// Records one op that ran from `start` to `end`.
    pub fn record(&mut self, op: &Op, start: Instant, end: Instant, ok: bool) {
        let kind = match op {
            Op::Batch(_) => Kind::Batch,
            Op::Single(_) => Kind::Single,
            Op::Fit(_) | Op::Insert { .. } => Kind::Write,
        };
        self.push(kind, start, end, op.rows(), ok);
    }

    /// Records a control op (such as a `refresh`) that ended at `end`: it
    /// counts as attempted and extends the phase, but carries no rows and
    /// no latency sample.
    pub fn mark(&mut self, end: Instant, ok: bool) {
        self.push(Kind::Mark, end, end, 0, ok);
    }

    /// Appends another caller's log.
    pub fn merge(&mut self, other: OpLog) {
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Adds the log's attempted and failed ops to `report`.
    pub fn count(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
    }

    /// Latencies of the `kind` ops.
    fn latencies(&self, kind: Kind) -> Vec<u64> {
        self.done
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.ns)
            .collect()
    }

    /// Median latency of the `kind` ops at zero steal. Steal slows a
    /// closed-loop caller's rate, the reciprocal of its latency, roughly in
    /// proportion, so each window's median is fitted as a rate against the
    /// window's steal share by [`at_zero_steal`] and turned back into a
    /// latency.
    fn p50_at_zero_steal(&self, kind: Kind, windows: &Windows) -> f64 {
        let mut per_window = vec![Vec::new(); windows.steal.len()];
        for d in self.done.iter().filter(|d| d.kind == kind) {
            if let Some(i) = windows.index(d.end_ns) {
                per_window[i].push(d.ns);
            }
        }
        let points: Vec<(f64, f64)> = per_window
            .iter()
            .zip(&windows.steal)
            .filter(|(ns, _)| ns.len() >= MIN_WINDOW_OPS)
            .map(|(ns, &steal)| (steal, 1.0 / median_ns(ns).max(1) as f64))
            .collect();
        if points.is_empty() {
            median_ns(&self.latencies(kind)) as f64
        } else {
            1.0 / at_zero_steal(&points)
        }
    }

    /// Adds the latency and throughput metrics to `report`, each read at
    /// zero steal, with the plain medians, each op's p99 and its sample
    /// count as diagnostics.
    pub fn summarize(&self, report: &mut Report, windows: &Windows) {
        let us = |ns: f64| ns / 1e3;
        for (name, kind) in [
            ("batch", Kind::Batch),
            ("single", Kind::Single),
            ("write", Kind::Write),
        ] {
            let samples = self.latencies(kind);
            report.metric(
                &format!("{name}_p50_us"),
                us(self.p50_at_zero_steal(kind, windows)),
                "us",
            );
            report.diagnostic(
                &format!("{name}_p50_plain_us"),
                us(median_ns(&samples) as f64),
                "us",
            );
            report.diagnostic(
                &format!("{name}_p99_us"),
                us(percentile_ns(&samples, 99.0) as f64),
                "us",
            );
            report.diagnostic(&format!("{name}_samples"), samples.len() as f64, "count");
        }
        let completions: Vec<(u64, u64)> = self.done.iter().map(|d| (d.end_ns, d.rows)).collect();
        let rates = windows.rates(&completions);
        report.metric("rows_per_s", at_zero_steal(&rates), "1/s");
        report.windows = rates;
        let end = self.done.iter().map(|d| d.end_ns).max().unwrap_or(0);
        let rows: u64 = self.done.iter().map(|d| d.rows).sum();
        report.diagnostic("phase_s", end as f64 / 1e9, "s");
        report.diagnostic(
            "phase_mean_rows_per_s",
            rows as f64 / (end as f64 / 1e9),
            "1/s",
        );
    }
}

/// The timed phase cut into [`STEAL_WINDOW`] windows, each with the share
/// of CPU time the hypervisor stole in it.
#[derive(Debug)]
pub struct Windows {
    /// Window edges in ns since the phase origin (one more than windows).
    edges: Vec<u64>,
    steal: Vec<f64>,
}

impl Windows {
    /// Windows between consecutive steal samples.
    fn from_samples(origin: Instant, samples: &[(Instant, CpuTicks)]) -> Self {
        Self {
            edges: samples
                .iter()
                .map(|(t, _)| t.saturating_duration_since(origin).as_nanos() as u64)
                .collect(),
            steal: samples
                .windows(2)
                .map(|pair| pair[1].1.steal_since(&pair[0].1))
                .collect(),
        }
    }

    /// The windows that end by `end_ns` (all of them for `None`, and at
    /// least the first).
    fn until(&self, end_ns: Option<u64>) -> Windows {
        let count = end_ns.map_or(self.steal.len(), |end| {
            self.edges
                .iter()
                .skip(1)
                .take_while(|&&edge| edge <= end)
                .count()
                .max(1)
        });
        let count = count.min(self.steal.len());
        Windows {
            edges: self.edges[..self.edges.len().min(count + 1)].to_vec(),
            steal: self.steal[..count].to_vec(),
        }
    }

    /// The window an instant falls in; `None` past the last edge, and
    /// without windows (no `/proc/stat`).
    fn index(&self, at_ns: u64) -> Option<usize> {
        let after = self.edges.partition_point(|&edge| edge <= at_ns);
        (after >= 1 && after <= self.steal.len()).then(|| after - 1)
    }

    /// `(steal share, rows per second)` of every window at least half a
    /// [`STEAL_WINDOW`] long (the phase's last window is usually cut
    /// short).
    fn rates(&self, completions: &[(u64, u64)]) -> Vec<(f64, f64)> {
        let mut rows = vec![0u64; self.steal.len()];
        for &(at, count) in completions {
            if let Some(i) = self.index(at) {
                rows[i] += count;
            }
        }
        let min_len = STEAL_WINDOW.as_nanos() as u64 / 2;
        (0..self.steal.len())
            .filter(|&i| self.edges[i + 1] - self.edges[i] >= min_len)
            .map(|i| {
                let seconds = (self.edges[i + 1] - self.edges[i]) as f64 / 1e9;
                (self.steal[i], rows[i] as f64 / seconds)
            })
            .collect()
    }
}

/// Wall-clock set-up timings and the layer clocks read inside them.
#[derive(Debug, Default)]
pub struct SetupClock {
    /// Whole set-ups (s).
    pub setups: Vec<f64>,
    /// Share of CPU time stolen during each set-up.
    pub steal: Vec<f64>,
    /// `Pipeline::…build()` calls (ns).
    pub build_ns: Vec<u64>,
    /// Training calls, per training row (ns).
    pub fit_ns_per_row: Vec<f64>,
}

impl SetupClock {
    /// Runs `build` [`SETUP_REPS`] times, timing each, and tears every
    /// instance down but the last, which it returns.
    ///
    /// # Errors
    ///
    /// Returns the first set-up's error.
    pub fn repeat<T>(
        &mut self,
        mut build: impl FnMut(&mut SetupClock) -> Result<T, BenchError>,
        mut teardown: impl FnMut(T),
    ) -> Result<T, BenchError> {
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            if let Some(previous) = kept.take() {
                teardown(previous);
            }
            let before = CpuTicks::now();
            let start = Instant::now();
            let instance = build(self)?;
            self.setups.push(start.elapsed().as_secs_f64());
            if let (Some(before), Some(after)) = (before, CpuTicks::now()) {
                self.steal.push(after.steal_since(&before));
            }
            kept = Some(instance);
        }
        kept.ok_or_else(|| "no set-up ran".into())
    }

    /// Times one model build.
    pub fn time_build<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.build_ns.push(start.elapsed().as_nanos() as u64);
        out
    }

    /// Times one training call over `rows` rows.
    pub fn time_fit<T>(&mut self, rows: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.fit_ns_per_row
            .push(start.elapsed().as_nanos() as f64 / rows.max(1) as f64);
        out
    }

    /// Adds `setup_s` (the set-ups' time at zero steal) and the set-up
    /// layer metrics to `report`.
    pub fn summarize(&self, report: &mut Report) {
        let setup_s = if self.steal.len() == self.setups.len() {
            // As a rate (set-ups per second), like the phase's latencies.
            let points: Vec<(f64, f64)> = self
                .steal
                .iter()
                .zip(&self.setups)
                .map(|(&steal, &s)| (steal, 1.0 / s))
                .collect();
            1.0 / at_zero_steal(&points)
        } else {
            median(&self.setups)
        };
        report.metric("setup_s", setup_s, "s");
        report.diagnostic("setup_plain_s", median(&self.setups), "s");
        report.diagnostic("setup_steal_frac", median(&self.steal), "ratio");
        report.metric(
            "basis.build_ms",
            median_ns(&self.build_ns) as f64 / 1e6,
            "ms",
        );
        report.metric(
            "learn.fit_us_per_row",
            median(&self.fit_ns_per_row) / 1e3,
            "us",
        );
    }
}

/// The clocks of the timed phase: its origin, a steal monitor and the
/// process's CPU time.
#[derive(Debug)]
pub struct PhaseClock {
    origin: Instant,
    monitor: StealMonitor,
    cpu_s: Option<f64>,
}

impl PhaseClock {
    /// Starts the phase now.
    #[must_use]
    pub fn start() -> Self {
        let monitor = StealMonitor::start(STEAL_WINDOW);
        Self {
            origin: Instant::now(),
            monitor,
            cpu_s: host::process_cpu_s(),
        }
    }

    /// The instant the phase started.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Ends the phase: adds `host.steal_frac` and `host.cpu_s` to `report`
    /// and returns the windows.
    pub fn finish(self, report: &mut Report) -> Windows {
        let cpu_s = host::process_cpu_s();
        let samples = self.monitor.stop();
        if let (Some(first), Some(last)) = (samples.first(), samples.last()) {
            report.diagnostic("host.steal_frac", last.1.steal_since(&first.1), "ratio");
        }
        if let (Some(before), Some(after)) = (self.cpu_s, cpu_s) {
            report.diagnostic("host.cpu_s", after - before, "s");
        }
        Windows::from_samples(self.origin, &samples)
    }
}

/// Adds the self times of a boundary tree (medians in ns) to `report` as
/// `<name>` in microseconds, for every `(boundary, metric)` pair given.
pub fn attribute(
    report: &mut Report,
    tree: &[(&'static str, Option<&'static str>, u64)],
    names: &[(&str, &str)],
) {
    let selves = self_times(tree);
    for &(boundary, metric) in names {
        if let Some(&(_, ns)) = selves.iter().find(|(name, _)| *name == boundary) {
            report.metric(metric, ns as f64 / 1e3, "us");
        }
    }
}

/// Accuracy over the first pass of a caller's batch stream, where every
/// query row is served exactly once: `served` holds the served labels in
/// stream order. It must equal the in-process model's accuracy.
pub fn first_pass_accuracy(
    report: &mut Report,
    ops: &[Op],
    served: &[u32],
    labels: &[usize],
    in_process: f64,
) {
    let rows: Vec<u32> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Batch(rows) => Some(rows.iter().copied()),
            _ => None,
        })
        .flatten()
        .take(labels.len())
        .collect();
    let n = rows.len().min(served.len());
    let hits = rows[..n]
        .iter()
        .zip(&served[..n])
        .filter(|&(&row, &label)| labels[row as usize] == label as usize)
        .count();
    let accuracy = hits as f64 / labels.len() as f64;
    report.check(n == labels.len() && accuracy == in_process, || {
        format!("served accuracy {accuracy} over {n} rows, in-process {in_process}")
    });
    report.diagnostic("accuracy", accuracy, "ratio");
}

/// Fills every per-layer metric this workload did not measure with `0`:
/// the layer is not on the workload's request path.
pub fn zero_unmeasured_layers(report: &mut Report) {
    for (name, unit) in crate::report::PER_LAYER {
        if report.value(name).is_none() {
            report.metric(name, 0.0, unit);
        }
    }
}

/// Peak RSS so far into the report as `rss_mb`. Workloads read it right
/// after the timed phase, so it covers set-up and serving but not the
/// reference models the output checks build afterwards.
///
/// # Errors
///
/// Fails where `/proc/self/status` cannot be read.
pub fn record_rss(report: &mut Report) -> Result<(), BenchError> {
    let rss = host::peak_rss_mb().ok_or("VmHWM is not readable from /proc/self/status")?;
    report.metric("rss_mb", rss, "MiB");
    Ok(())
}

/// One closed-loop caller of a workload.
pub trait Caller {
    /// Sends one op and waits for its reply; `false` if it failed.
    fn exec(&mut self, op: &Op) -> bool;

    /// Sends a sampled, already served op (which ran from `start` to
    /// `end`) through the boundaries below the top one, recording one span
    /// per boundary.
    fn push_down(
        &mut self,
        tracer: &mut Tracer,
        request: u64,
        op: &Op,
        start: Instant,
        end: Instant,
    );
}

/// What one or more callers measured in the timed phase.
#[derive(Debug)]
pub struct Phase {
    /// Ops of the untraced part (all ops of an untraced run).
    pub untraced: OpLog,
    /// Ops of the traced part.
    pub traced: OpLog,
    /// Spans of the traced part.
    pub tracer: Tracer,
    /// When the first caller sent its last op (ns since the origin): the
    /// end of the steady part, in which every caller is still sending.
    steady_end_ns: Option<u64>,
}

impl Phase {
    /// An empty phase whose clocks count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            untraced: OpLog::new(origin),
            traced: OpLog::new(origin),
            tracer: Tracer::new(origin),
            steady_end_ns: None,
        }
    }

    /// Appends another caller's phase.
    pub fn merge(&mut self, other: Phase) {
        self.untraced.merge(other.untraced);
        self.traced.merge(other.traced);
        self.tracer.merge(other.tracer);
        self.steady_end_ns = match (self.steady_end_ns, other.steady_end_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    /// Adds attempted and failed ops to `report`; in an untraced run also
    /// the end-to-end latency and throughput metrics, in a traced run the
    /// tracing overhead.
    pub fn summarize(&self, report: &mut Report, trace: bool, windows: &Windows) {
        let windows = &windows.until(self.steady_end_ns);
        self.untraced.count(report);
        self.traced.count(report);
        if trace {
            let p50 = |log: &OpLog| log.p50_at_zero_steal(Kind::Batch, windows);
            let overhead = p50(&self.traced) - p50(&self.untraced);
            report.metric("trace.overhead_us", overhead / 1e3, "us");
        } else {
            self.untraced.summarize(report, windows);
        }
    }
}

/// Drives one caller's ops in a closed loop. In a traced run the first
/// half runs untraced; in the second half every batch op becomes a `top`
/// span, and every [`SAMPLE_EVERY`]-th op of each kind is pushed down the
/// layers.
pub fn drive(
    caller: &mut impl Caller,
    id: usize,
    ops: &[Op],
    origin: Instant,
    trace: bool,
    top: &'static str,
) -> Phase {
    let mut phase = Phase::new(origin);
    let traced_from = if trace { ops.len() / 2 } else { ops.len() };
    let mut traced_by_kind = [0usize; 4];
    for (i, op) in ops.iter().enumerate() {
        let start = Instant::now();
        let ok = caller.exec(op);
        let end = Instant::now();
        if i < traced_from {
            phase.untraced.record(op, start, end, ok);
            continue;
        }
        phase.traced.record(op, start, end, ok);
        if !ok {
            continue;
        }
        let request = (id as u64) << 32 | i as u64;
        if matches!(op, Op::Batch(_)) {
            phase.tracer.record(top, None, request, start, end);
        }
        let kind = match op {
            Op::Batch(_) => 0,
            Op::Single(_) => 1,
            Op::Fit(_) => 2,
            Op::Insert { .. } => 3,
        };
        traced_by_kind[kind] += 1;
        if traced_by_kind[kind] % SAMPLE_EVERY == 0 {
            caller.push_down(&mut phase.tracer, request, op, start, end);
        }
    }
    phase.steady_end_ns = Some(origin.elapsed().as_nanos() as u64);
    phase
}

/// Writes the spans of a traced run to
/// `<out_dir>/spans-<workload>-seed<seed>.jsonl`.
///
/// # Errors
///
/// Returns the I/O error of writing the span file.
pub fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), BenchError> {
    let path = args.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer.write_jsonl(&path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows() -> Windows {
        let origin = Instant::now();
        let ticks = |total, steal| CpuTicks { total, steal };
        let samples = [
            (origin, ticks(0, 0)),
            (origin + Duration::from_millis(250), ticks(50, 0)),
            (origin + Duration::from_millis(500), ticks(100, 10)),
            (origin + Duration::from_millis(750), ticks(150, 10)),
        ];
        Windows::from_samples(origin, &samples)
    }

    #[test]
    fn windows_carry_steal_and_rates_and_stop_at_the_steady_end() {
        let all = windows();
        assert_eq!(all.steal, vec![0.0, 0.2, 0.0]);
        assert_eq!(all.index(100_000_000), Some(0));
        assert_eq!(all.index(800_000_000), None);
        let rates = all.rates(&[(100_000_000, 25), (300_000_000, 50)]);
        assert_eq!(rates, vec![(0.0, 100.0), (0.2, 200.0), (0.0, 0.0)]);
        let steady = all.until(Some(600_000_000));
        assert_eq!(steady.steal, vec![0.0, 0.2]);
        assert_eq!(steady.index(600_000_000), None);
        assert_eq!(all.until(Some(1)).steal.len(), 1);
        assert_eq!(all.until(None).steal.len(), 3);
    }
}
