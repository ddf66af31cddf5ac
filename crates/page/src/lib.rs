//! Columnar data representation: pages and blocks.
//!
//! The unit of data flowing between operators is a [`Page`]: "a columnar
//! encoding of a sequence of rows" (§IV-E1). A page is a list of [`Block`]s,
//! one per column, each with a flat in-memory representation (§V-C: "Pointer
//! chasing, unboxing, and virtual method calls add significant overhead to
//! tight loops").
//!
//! Blocks come in flat variants ([`blocks::LongBlock`], [`blocks::DoubleBlock`],
//! [`blocks::BoolBlock`], [`blocks::VarcharBlock`]) plus three structured
//! encodings that mirror Fig. 5 of the paper:
//!
//! * [`blocks::RleBlock`] — run-length encoding: one value repeated N times;
//! * [`blocks::DictionaryBlock`] — a shared dictionary of distinct values and
//!   a flat index array; several blocks may share one dictionary;
//! * [`blocks::LazyBlock`] — a thunk that reads/decompresses/decodes the
//!   column only when a cell is first accessed (§V-D lazy data loading).
//!
//! Operators process dictionary and RLE blocks without decoding whenever
//! possible (§V-E); the helpers in [`hash`] and the `filter`/`compare`
//! methods on [`Block`] are dictionary-aware for this reason.

pub mod block;
pub mod blocks;
pub mod builder;
pub mod codec;
pub mod frame;
pub mod hash;
pub mod page;

pub use block::{Block, PhysicalType};
pub use blocks::{
    BoolBlock, DictionaryBlock, DoubleBlock, LazyBlock, LongBlock, RleBlock, VarcharBlock,
};
pub use builder::BlockBuilder;
pub use codec::{deserialize_block, deserialize_page, serialize_block, serialize_page};
pub use frame::{decode_framed_page, frame_info, frame_page, framed_payload_len, FrameInfo};
pub use page::Page;
