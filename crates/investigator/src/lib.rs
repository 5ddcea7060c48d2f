//! External investigators (§3.2, §3.3.3).
//!
//! An external investigator is an auxiliary program that examines selected
//! files and extracts application-specific relationship information, which
//! is fed to the correlator as [`ExternalRelation`]s. The paper's examples
//! are a script reading C sources for `#include` relationships, a
//! hypothetical `makefile` investigator identifying every file of a build,
//! and WINDOWS OLE "hot links"; all three have equivalents here:
//!
//! * [`IncludeScanner`] — C/C++ `#include` relationships;
//! * [`MakefileInvestigator`] — whole-build clusters from makefile rules;
//! * [`HotLinkInvestigator`] — explicit document links (the OLE analog).
//!
//! Investigators read from a [`SourceCorpus`], the reproduction's stand-in
//! for the real disk (the traced machines' file *contents* are not part of
//! a syscall trace, so the workload generator synthesizes them).

#![warn(missing_docs)]

pub mod corpus;
pub mod hotlink;
pub mod include;
pub mod makefile;

pub use corpus::SourceCorpus;
pub use hotlink::HotLinkInvestigator;
pub use include::IncludeScanner;
pub use makefile::MakefileInvestigator;

use seer_cluster::ExternalRelation;
use seer_trace::PathTable;

/// An auxiliary analyzer producing file-relationship evidence (§3.2).
pub trait Investigator {
    /// Human-readable investigator name.
    fn name(&self) -> &'static str;

    /// Examines the corpus and reports weighted relations. New paths are
    /// interned into `paths` as needed.
    fn investigate(&self, corpus: &SourceCorpus, paths: &mut PathTable) -> Vec<ExternalRelation>;
}
