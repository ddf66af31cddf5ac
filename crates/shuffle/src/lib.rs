//! Buffered in-memory shuffles (§IV-E2).
//!
//! "Presto uses in-memory buffered shuffles over HTTP to exchange
//! intermediate results. Data produced by tasks is stored in buffers for
//! consumption by other workers. Workers request intermediate results from
//! other workers using HTTP long-polling. The server retains data until the
//! client requests the next segment using a token sent in the previous
//! response."
//!
//! The transport here is shared memory rather than HTTP — per DESIGN.md the
//! simulated cluster replaces only the wire — but the protocol is the same:
//!
//! * producers append pages into a partitioned [`OutputBuffer`]: serialized
//!   and framed for a consumer on another worker, handed over as the page
//!   itself for a consumer on the producer's own worker;
//! * consumers poll `(partition, token)`; the buffer retains data until the
//!   next token implicitly acknowledges it;
//! * producers observe output-buffer utilization and *stall* when full
//!   (driving the engine's concurrency-reduction adaptation, §IV-E2);
//! * consumers ([`ExchangeClient`]) track a moving average of bytes per
//!   response to size their request concurrency, and stop polling when
//!   their input buffer is full — backpressure that propagates upstream.

pub mod buffer;
pub mod client;

pub use buffer::{BufferState, OutputBuffer, OutputTotals, Payload, PollResponse};
pub use client::{ExchangeClient, ReceivedTotals};
