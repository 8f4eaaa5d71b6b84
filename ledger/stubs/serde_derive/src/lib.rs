//! Offline stand-in for `serde_derive`. The ctup workspace derives
//! `Serialize`/`Deserialize` on its types but never calls a serializer
//! (every on-disk and on-wire format is hand-rolled), so the derives
//! expand to nothing.

use proc_macro::TokenStream;

/// No-op `Serialize` derive.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
