//! Offline stand-in for the `serde` crate.
//!
//! No workspace source derives or imports these traits: the crate
//! manifests still list `serde` only because `perfbench/Cargo.lock` does,
//! and both go together. Campaign reports are serialized by
//! `comet-lab`'s own JSON module. This shim provides the two marker
//! traits and re-exports pass-through derives, so the
//! `use serde::{Deserialize, Serialize}` + `#[derive(...)]` idiom would
//! compile in offline builds.
//!
//! To use the real crates.io `serde`, point the `serde` entry in the
//! workspace `[workspace.dependencies]` table back at the registry.

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait mirroring `serde::Serialize`.
///
/// The derive in this shim expands to nothing, so types are *not*
/// automatically marked; the trait exists only so that bounds written
/// against it keep compiling.
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize`.
pub trait Deserialize<'de> {}
