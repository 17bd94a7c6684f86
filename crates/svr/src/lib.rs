//! Support Vector Regression — the predictor behind the paper's
//! **model-based baseline** (Li et al., *Performance modeling and predictive
//! scheduling for distributed stream data processing*, IEEE TBD 2016,
//! reference \[25\] of the reproduced paper).
//!
//! That baseline estimates end-to-end tuple processing time by predicting
//! the delay of each component with SVR and composing the predictions over
//! the topology. This crate supplies the regression machinery:
//!
//! * [`LinearSvr`] — ε-insensitive linear SVR trained by subgradient
//!   descent on the primal (Drucker et al., NIPS 1996 formulation);
//! * [`StandardScaler`] — feature standardization, fitted on training data.
//!
//! The composition of per-component predictions into an end-to-end estimate
//! lives in `dss-core::scheduler::model_based`, next to the search that
//! uses it.

pub mod linear;
pub mod scaler;

pub use linear::{LinearSvr, SvrConfig};
pub use scaler::StandardScaler;
