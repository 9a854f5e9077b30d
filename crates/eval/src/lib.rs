//! # passflow-eval
//!
//! The experiment harness of the PassFlow reproduction: drivers that
//! regenerate every table and figure of the paper's evaluation section on
//! the synthetic corpus, at a configurable [`EvalScale`].
//!
//! * [`Workbench`] prepares the shared state (corpus, split, trained flow),
//! * [`tables`] regenerates Tables I–VI,
//! * [`figures`] regenerates the data series behind Figures 2–5,
//! * [`projection`] provides the PCA / t-SNE used by Figure 2,
//! * [`strength`] reports guess-number distributions and model agreement
//!   from the core strength-meter subsystem,
//! * [`report::Table`] renders results as aligned text or CSV.
//!
//! ## Example
//!
//! ```rust,no_run
//! use passflow_eval::{tables, EvalScale, Workbench};
//!
//! let workbench = Workbench::prepare(EvalScale::default_scale())?;
//! let table2 = tables::table2(&workbench)?;
//! println!("{table2}");
//! # Ok::<(), passflow_core::FlowError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod projection;
pub mod report;
mod scale;
pub mod strength;
pub mod tables;

pub use report::Table;
pub use scale::{EvalScale, Workbench};
