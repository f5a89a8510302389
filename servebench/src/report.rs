//! Metric names, provenance and the result line.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::Command;

/// The gated end-to-end metrics `(name, unit)`, printed by every untraced
/// run of every workload. They match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rows_per_s", "1/s"),
    ("batch_p50_us", "us"),
    ("single_p50_us", "us"),
    ("write_p50_us", "us"),
    ("rss_mb", "MiB"),
];

/// The per-layer metrics `(name, unit)`, printed by every traced run of
/// every workload. A layer that is not on a workload's request path adds
/// nothing to it and reads `0` there.
pub const PER_LAYER: [(&str, &str); 19] = [
    ("basis.build_ms", "ms"),
    ("learn.fit_us_per_row", "us"),
    ("encode.us_per_row", "us"),
    ("readout.us_per_row", "us"),
    ("runtime.self_us", "us"),
    ("runtime.mean_batch_size", "rows"),
    ("runtime.batches", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("server.self_us", "us"),
    ("cluster.self_us", "us"),
    ("cluster.rows_per_shard_call", "rows"),
    ("cluster.shard_mean_batch_size", "rows"),
    ("cluster.whole_batch_us", "us"),
    ("store.write_self_us", "us"),
    ("store.wal_bytes_per_record", "bytes"),
    ("store.recover_s", "s"),
    ("trace.overhead_us", "us"),
];

/// Mismatch lines a caller keeps; one is enough to fail the run.
pub const MAX_MISMATCHES: usize = 100;

/// Adds a mismatch line to `list` unless it already holds
/// [`MAX_MISMATCHES`].
pub fn note(list: &mut Vec<String>, line: impl FnOnce() -> String) {
    if list.len() < MAX_MISMATCHES {
        list.push(line());
    }
}

/// One named figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Ops sent, including set-up probes and checks.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub mismatches: Vec<String>,
    /// Measured figures by name; the result line picks the gated ones.
    pub metrics: Vec<Metric>,
    /// Reported but not gated: quality, p99s with their sample counts,
    /// host diagnostics.
    pub diagnostics: Vec<Metric>,
    /// `(steal share, rows per second)` of the windows of the timed phase.
    pub windows: Vec<(f64, f64)>,
}

impl Report {
    /// Adds a measured figure.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Adds a diagnostic figure.
    pub fn diagnostic(&mut self, name: &str, value: f64, unit: &str) {
        self.diagnostics.push(Metric::new(name, value, unit));
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.mismatches.push(what());
        }
    }

    /// `true` when every check held and no op failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// Value of a measured figure.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final stdout line: `correct`, `attempted`, `failed` and the
    /// `names` metrics (each must have been measured).
    ///
    /// # Errors
    ///
    /// Names the first metric in `names` that was not measured or is not
    /// finite.
    pub fn result_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self
                .value(name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// The `hdc_core` kernel backend selected at run time.
    pub kernel_backend: &'static str,
    /// Worker threads of the batch layer's pool.
    pub minipool_threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of the Rust sources and manifests the benchmark
    /// builds from, which identifies the code where no commit is known.
    pub source_digest: String,
}

impl Provenance {
    /// Collects the provenance of this process.
    #[must_use]
    pub fn collect(seed: u64) -> Self {
        let run = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
        };
        Self {
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: run("rustc", &["--version"]),
            kernel_backend: hdc_core::kernels::dispatch::selected_backend().name(),
            minipool_threads: minipool::max_threads(),
            seed,
            commit: run("git", &["rev-parse", "HEAD"]),
            source_digest: format!("{:016x}", source_digest(Path::new("."))),
        }
    }

    /// The provenance as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"rustc\": \"{}\", \"kernel_backend\": \"{}\", \
             \"minipool_threads\": {}, \"seed\": {}, \"commit\": \"{}\", \"source_digest\": \"{}\"}}",
            self.available_parallelism,
            self.rustc,
            self.kernel_backend,
            self.minipool_threads,
            self.seed,
            self.commit,
            self.source_digest
        )
    }
}

/// FNV-1a over the relative paths and contents of every `.rs` and
/// `Cargo.toml` file under `crates/`, `vendor/` and `servebench/`.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "servebench"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for path in files {
        feed(path.to_string_lossy().as_bytes());
        if let Ok(contents) = fs::read(&path) {
            feed(&contents);
        }
    }
    hash
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_sources(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// A JSON array of `{"name", "value", "unit"}` objects.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".into()
                },
                m.unit
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let (e2e, layers) = spec.split_at(spec.find("\"per_layer\"").expect("per_layer section"));
        for (name, unit) in END_TO_END {
            assert!(
                e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for (name, unit) in PER_LAYER {
            assert!(
                layers.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        assert_eq!(e2e.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("setup_s", 0.5, "s");
        report.metric("other", 1.0, "s");
        let line = report.result_line(&[("setup_s", "s")]).expect("measured");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(report.result_line(&[("missing", "s")]).is_err());
        report.check(false, || "label mismatch".into());
        assert!(!report.correct());
    }
}
