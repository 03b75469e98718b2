//! Offline vendored stand-in for `serde`'s derive macros.
//!
//! The build environment of this repository cannot reach crates.io. No
//! type in the workspace derives `Serialize`/`Deserialize` and no code
//! calls them: JSON goes through `can_obs::json`. This crate stays only
//! because six manifests still list `serde` and `perfbench/Cargo.lock`
//! records it; dropping it rewrites that lock, so it goes together with
//! the next benchmark change. Its no-op derives (with the `#[serde(...)]`
//! helper attribute) emit no code.

use proc_macro::TokenStream;

/// No-op `Serialize` derive: accepts (and ignores) `#[serde(...)]` helper
/// attributes and emits no code.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive: accepts (and ignores) `#[serde(...)]` helper
/// attributes and emits no code.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
