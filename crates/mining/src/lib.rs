//! # dq-mining — classifier substrate for data auditing
//!
//! The multiple classification / regression approach of the paper
//! (sec. 5) induces, for each attribute of the audited relation, a
//! classifier predicting that attribute from the others. "Inside this
//! framework, it is possible to choose different algorithms to induce
//! dependency models between the base and class attributes." This
//! crate provides the framework and the algorithms:
//!
//! * [`dataset`] — [`TrainingSet`]: a class-attribute view over a
//!   table, including the equal-frequency binning of numeric class
//!   attributes;
//! * [`classifier`] — the [`Classifier`]/[`Inducer`] traits. Every
//!   classifier predicts a full **class distribution plus the number
//!   of training instances it is based on** — exactly the two inputs
//!   the paper's error confidence needs, which "makes it usable in
//!   data auditing tools for domains that require different data
//!   mining algorithms";
//! * [`tree`] — C4.5 decision trees (gain ratio, binary numeric
//!   splits, fractional instances for missing values, pessimistic-
//!   error pruning) with the paper's data-auditing adjustments
//!   (minInst pre-pruning, integrated expected-error-confidence
//!   pruning, tree→rule-set transformation);
//! * [`columns`] — the dense columnar cache of a training set (typed
//!   arrays, null masks, dense class codes, one-off presorted ordered
//!   attributes) that the C4.5 induction recursion runs on;
//! * [`flat`] — the contiguous array-of-structs compilation of an
//!   induced tree that deviation detection classifies through,
//!   byte-identical to the boxed tree but allocation- and
//!   pointer-chase-free;
//! * [`naive_bayes`], [`knn`], [`oner`], [`zeror`] — the alternative
//!   inducer families the paper evaluated for the QUIS domain
//!   ("instance based classifiers, naive Bayes classifiers,
//!   classification rule inducers, and decision trees");
//! * [`apriori`] — association rules, the substrate of the Hipp et
//!   al. related-work comparator.

pub mod apriori;
pub mod classifier;
pub mod columns;
pub mod dataset;
pub mod error;
pub mod flat;
pub mod knn;
pub mod naive_bayes;
pub mod oner;
pub mod tree;
pub mod zeror;

pub use apriori::{Apriori, AprioriConfig, AssociationRule};
pub use classifier::{Classifier, Inducer, InducerKind, Prediction};
pub use columns::{BaseColumn, ColumnarTraining, TableCache};
pub use dataset::{ClassSpec, TrainingSet};
pub use error::MiningError;
pub use flat::{FlatTree, Reach};
pub use knn::KnnInducer;
pub use naive_bayes::NaiveBayesInducer;
pub use oner::OneRInducer;
pub use tree::{
    C45Config, C45Inducer, Condition, ConditionTest, DecisionTree, Node, Pruning, SplitCriterion,
    SplitKind, TreeRule,
};
pub use zeror::ZeroRInducer;
