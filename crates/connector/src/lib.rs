//! The Connector SPI: Presto's pluggable data-source interface.
//!
//! §III of the paper: "plugins also provide connectors, which enable Presto
//! to communicate with external data stores through the Connector API,
//! which is composed of four parts: the Metadata API, Data Location API,
//! Data Source API, and Data Sink API." This crate defines those four
//! surfaces plus the supporting vocabulary:
//!
//! * [`metadata::ConnectorMetadata`] — tables, schemas, statistics and
//!   [`metadata::DataLayout`]s (partitioning / sorting / index properties
//!   the optimizer exploits, §IV-B3-1);
//! * [`split::SplitSource`] — lazy, batched split enumeration
//!   (Data Location API, §IV-D3);
//! * [`source::PageSource`] — streaming page reads for one split
//!   (Data Source API);
//! * [`sink::PageSink`] — streaming page writes (Data Sink API, §IV-E3);
//! * [`domain::TupleDomain`] — the predicate representation pushed down to
//!   connectors (§IV-B3-2);
//! * [`index::IndexSource`] — point-lookup joins against connector indexes.
//!
//! Everything is object-safe so engines hold `Arc<dyn Connector>`.

pub mod connector;
pub mod domain;
pub mod index;
pub mod metadata;
pub mod sink;
pub mod source;
pub mod split;

pub use connector::{CatalogManager, Connector};
pub use domain::{Domain, TupleDomain};
pub use index::IndexSource;
pub use metadata::{ConnectorMetadata, DataLayout, Partitioning};
pub use sink::{PageSink, PageSinkFactory};
pub use source::{
    DynamicFilter, DynamicFilterMetrics, DynamicFilterTotals, PageSource, PageSourceFactory,
    ScanOptions,
};
pub use split::{FixedSplitSource, Split, SplitPayload, SplitSource};
