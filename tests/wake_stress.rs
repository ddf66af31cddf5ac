//! The wake-protocol stress of `presto-cluster`, compiled here as well so
//! the tier-1 command (`cargo test` from the root, which runs this package
//! only) runs it. One copy of the source.

#[path = "../crates/cluster/tests/wake_stress.rs"]
mod wake_stress;
