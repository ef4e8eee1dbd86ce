//! Offline stand-in for the `serde_derive` proc-macro crate.
//!
//! The workspace is built in environments without registry access (see
//! `shims/README.md`). No workspace source uses these derives; they stay
//! until the lockfiles stop listing them. They accept the full attribute
//! syntax and expand to an empty token stream. Swapping in the real
//! `serde_derive` is a two-line change in the workspace manifest.

use proc_macro::TokenStream;

/// Accepts `#[derive(Serialize)]` (including `#[serde(...)]` helper
/// attributes) and expands to nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts `#[derive(Deserialize)]` (including `#[serde(...)]` helper
/// attributes) and expands to nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
