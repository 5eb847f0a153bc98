//! A multi-tenant link-and-invoke service for Units.
//!
//! The paper's §3.4 pitch — signature-checked dynamic linking — is
//! what an extensible *server* needs: plug-ins arrive at run time,
//! are admitted only if they satisfy a published signature, and can
//! be replaced without restarting anything. This crate builds that
//! server in two layers:
//!
//! * [`Service`] — the in-process core. One shared [`units::Engine`]
//!   session, any number of named [`Tenant`]s, each with a private
//!   plug-in namespace, a resource cap enforced as admission control,
//!   and always-on request counters. Hot swap is an `Arc` replace:
//!   in-flight requests finish on the version they started with.
//!   Tests and benches call this directly.
//! * [`Server`] / [`Client`] and the `unitsd` binary — a socket front
//!   end speaking 4-byte-length-prefixed JSON frames over a
//!   Unix-domain socket, one thread per connection ([`proto`] has the
//!   vocabulary).
//!
//! # Example
//!
//! ```
//! use units_serve::Service;
//! use units::{Level, Limits, Observation};
//!
//! let service = Service::builder().level(Level::Untyped).build();
//! let tenant = service.tenant_with_caps("acme", Limits::none().fuel(100_000));
//! tenant
//!     .load_plugin("square", "(unit (import) (export) (init (lambda (n) (* n n))))", None)
//!     .unwrap();
//! let outcome = tenant.invoke("square", Some(12)).unwrap();
//! assert_eq!(outcome.value, Observation::Int(144));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The JSON codec the wire protocol speaks: `units_trace::json`,
/// re-exported so protocol users need not name the tracing crate.
pub use units_trace::json;
pub mod proto;
mod server;
mod service;

pub use server::{Client, Server};
pub use service::{
    PluginVersion, PublishInfo, ServeError, Service, ServiceBuilder, Tenant, TenantSnapshot,
};
