//! The fixed datasets and model specs the workloads serve.
//!
//! Datasets and model seeds are constants, not functions of the workload
//! seed: the seed only chooses the op sequence. That keeps `accuracy` and
//! `mae` comparable across runs and commits while the traffic varies.

use hdc_datasets::beijing::{self, BeijingConfig, DAYS_PER_YEAR};
use hdc_datasets::jigsaws::{JigsawsConfig, JigsawsTask, TRAIN_SURGEON};
use hdc_serve::{Basis, Enc, FieldSpec, HdcError, Model, Pipeline};

/// Hypervector dimensionality of every workload.
pub const DIM: usize = 10_000;

/// Seed of every model's basis and key draws.
pub const MODEL_SEED: u64 = 0x7AB1E1;

/// Quantization levels per JIGSAWS angle channel (Table 1 uses 16).
pub const GESTURE_LEVELS: usize = 16;

/// Randomness `r` of the JIGSAWS circular basis (the paper's 0.1).
pub const GESTURE_R: f64 = 0.1;

/// Levels per Beijing input field.
pub const FORECAST_LEVELS: usize = 64;

/// Levels of the Beijing temperature label grid.
pub const FORECAST_LABEL_LEVELS: usize = 64;

/// Rows per forecast training call. One call encodes all its rows into
/// one arena; chunking bounds that scratch to about 2.5 MB instead of
/// 30 MB for the whole split, so whether the allocator keeps a freed
/// arena resident no longer decides peak memory. Fits commute, so the
/// trained model is the same.
pub const TRAIN_CHUNK: usize = 2048;

/// A labelled gesture corpus: raw 18-angle rows with their gestures.
#[derive(Debug, Clone)]
pub struct Gestures {
    /// Number of gesture classes.
    pub classes: usize,
    /// Training rows (one surgeon).
    pub train: Vec<Vec<f64>>,
    /// Training labels.
    pub train_labels: Vec<usize>,
    /// Held-out rows (every other surgeon).
    pub test: Vec<Vec<f64>>,
    /// Held-out labels.
    pub test_labels: Vec<usize>,
}

/// JIGSAWS Suturing, enlarged from the paper-sized default so that
/// training on one surgeon, not thread start-up, dominates set-up time.
#[must_use]
pub fn gestures() -> Gestures {
    let config = JigsawsConfig {
        trials_per_surgeon: 8,
        frames_per_trial: 30,
        ..JigsawsConfig::default()
    };
    let data = JigsawsTask::Suturing.generate(&config);
    let (train, test) = data.train_test_split(TRAIN_SURGEON);
    Gestures {
        classes: data.gesture_count,
        train_labels: train.iter().map(|s| s.gesture).collect(),
        train: train.iter().map(|s| s.angles.clone()).collect(),
        test_labels: test.iter().map(|s| s.gesture).collect(),
        test: test.iter().map(|s| s.angles.clone()).collect(),
    }
}

/// Builds the untrained gesture model: 18 circular angle fields bound to
/// their keys and bundled (`Enc::record`), centroid classification.
///
/// # Errors
///
/// Returns [`HdcError`] if the spec is invalid.
pub fn gesture_model(classes: usize) -> Result<Model<[f64]>, HdcError> {
    Pipeline::builder(DIM)
        .seed(MODEL_SEED)
        .classes(classes)
        .basis(Basis::Circular {
            m: GESTURE_LEVELS,
            r: GESTURE_R,
        })
        .encoder(Enc::record(vec![FieldSpec::angle(); 18]))
        .build()
}

/// An hourly temperature corpus: `[year, day angle, hour angle]` rows.
#[derive(Debug, Clone)]
pub struct Forecast {
    /// Years spanned by the series (upper bound of the year field).
    pub years: f64,
    /// Label range `(min, max)` in °C.
    pub range: (f64, f64),
    /// Training rows (the first 70 % of the series).
    pub train: Vec<[f64; 3]>,
    /// Training temperatures.
    pub train_values: Vec<f64>,
    /// Rows observed online during the timed phase.
    pub online: Vec<[f64; 3]>,
    /// Temperatures of the online rows.
    pub online_values: Vec<f64>,
    /// Held-out rows, evaluated after the final refresh.
    pub heldout: Vec<[f64; 3]>,
    /// Held-out temperatures.
    pub heldout_values: Vec<f64>,
}

/// The Beijing surrogate: 70 % trains the model at set-up, the next 15 %
/// streams in as online fits, the last 15 % is held out.
#[must_use]
pub fn forecast() -> Forecast {
    let config = BeijingConfig::default();
    let data = beijing::generate(&config);
    let row = |s: &beijing::BeijingSample| {
        [
            s.year,
            s.day_of_year / DAYS_PER_YEAR * std::f64::consts::TAU,
            s.hour / 24.0 * std::f64::consts::TAU,
        ]
    };
    let (train, rest) = data.temporal_split(0.7);
    let (online, heldout) = rest.split_at(rest.len() / 2);
    Forecast {
        years: config.years as f64,
        range: data.temperature_range(),
        train: train.iter().map(|s| row(s)).collect(),
        train_values: train.iter().map(|s| s.temperature).collect(),
        online: online.iter().map(|s| row(s)).collect(),
        online_values: online.iter().map(|s| s.temperature).collect(),
        heldout: heldout.iter().map(|s| row(s)).collect(),
        heldout_values: heldout.iter().map(|s| s.temperature).collect(),
    }
}

/// Builds the untrained forecast model: a year scalar and two circular
/// calendar angles, regression onto a 64-level temperature grid.
///
/// # Errors
///
/// Returns [`HdcError`] if the spec is invalid.
pub fn forecast_model(data: &Forecast) -> Result<Model<[f64]>, HdcError> {
    Pipeline::builder(DIM)
        .seed(MODEL_SEED)
        .regression(data.range.0, data.range.1, FORECAST_LABEL_LEVELS)
        .basis(Basis::Circular {
            m: FORECAST_LEVELS,
            r: 0.01,
        })
        .encoder(Enc::record(vec![
            FieldSpec::scalar(0.0, data.years),
            FieldSpec::angle(),
            FieldSpec::angle(),
        ]))
        .build()
}

/// Trains `model` on `rows` and `values` in [`TRAIN_CHUNK`]-row calls.
///
/// # Errors
///
/// Returns [`HdcError`] if the model is not a regression model or the
/// lengths differ.
pub fn fit_forecast(
    model: &mut Model<[f64]>,
    rows: &[[f64; 3]],
    values: &[f64],
) -> Result<(), HdcError> {
    if rows.len() != values.len() {
        return Err(HdcError::BatchLengthMismatch {
            rows: rows.len(),
            labels: values.len(),
        });
    }
    for (rows, values) in rows.chunks(TRAIN_CHUNK).zip(values.chunks(TRAIN_CHUNK)) {
        model.fit_value_batch(rows.iter().map(|r| r.as_slice()), values)?;
    }
    Ok(())
}
