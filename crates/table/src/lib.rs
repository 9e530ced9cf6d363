//! # dq-table — typed columnar tables for data-quality tooling
//!
//! This crate is the data substrate used by every other crate in the
//! workspace. It models the single-relation world of the paper
//! *Systematic Development of Data Mining-Based Data Quality Tools*
//! (Luebbers, Grimmer, Jarke; VLDB 2003):
//!
//! * a [`Schema`] declares attributes of three kinds — **nominal** (finite
//!   label set), **numeric** (bounded real or integer range) and **date**
//!   (bounded day range) — mirroring the QUIS schema description in the
//!   paper ("the majority of QUIS attributes are of nominal type,
//!   furthermore there are a number of attributes of numerical or date
//!   type");
//! * a [`Table`] stores records column-wise with explicit NULLs, supports
//!   in-place cell mutation (required by the polluters), row duplication
//!   and deletion (required by the duplicator polluter) and row iteration
//!   (required by the miners);
//! * [`discretize`] provides the equal-frequency binning used by the
//!   auditing tool to turn numeric class attributes into nominal ones
//!   before decision-tree induction (sec. 5 of the paper);
//! * [`BatchSource`] is the one streaming abstraction every pipeline
//!   stage speaks — bounded [`Table`] batches in row order — and
//!   [`CsvChunkReader`] its on-disk reader: CSV is the one format rows
//!   are written to and read from.
//!
//! The crate has no dependencies; everything above it composes through
//! these types.

pub mod batch;
pub mod builder;
pub mod column;
pub mod csv;
pub mod date;
pub mod discretize;
pub mod error;
pub mod schema;
pub mod schema_io;
pub mod table;
pub mod value;

pub use batch::{BatchSource, ReplaySource, TableBatches};
pub use builder::SchemaBuilder;
pub use column::{Column, TypedCell};
pub use csv::{read_csv, write_csv, CsvChunkReader, CsvRows, CsvWriter, QuarantinedRow};
pub use discretize::{discretize_equal_frequency, discretize_equal_width, Binning};
pub use error::TableError;
pub use schema::{AttrType, Attribute, Schema};
pub use schema_io::{read_schema, render_schema, write_schema};
pub use table::{RowSlice, Table};
pub use value::Value;

/// Index of an attribute within a [`Schema`] (and of the corresponding
/// column within a [`Table`]).
pub type AttrIdx = usize;

/// Index of a row within a [`Table`].
pub type RowIdx = usize;
