//! Multi-tenant aggregation service over the DODA sweep engine.
//!
//! Where [`doda_sim::Sweep`] answers "run this batch to completion",
//! this crate answers "keep thousands of tenants' aggregations live at
//! once": a [`SessionManager`] owns one [session] per
//! sink/tenant, steps the runnable ones in budgeted slices over a shared
//! worker pool, and streams each [`doda_sim::TrialResult`] out the
//! moment its session finishes. Sessions are either *scenario-fed*
//! (byte-identical to trial 0 of the equivalent standalone sweep) or
//! *externally-fed* through a bounded inbox whose overflow policy —
//! shed or block — is the service's backpressure story.
//!
//! On top sits a compact, versioned [wire format](crate::wire)
//! ([`WireEvent`] in, [`WireResult`] out) and a [`Transport`] trait with
//! an in-memory [`Loopback`] reference implementation, tying a
//! [`ServiceClient`] to a [`ServiceEndpoint`] end-to-end.
//!
//! # Quickstart
//!
//! Run a small fleet of scenario-fed sessions over a loopback wire and
//! collect their results as they stream back:
//!
//! ```
//! use doda_service::prelude::*;
//! use doda_sim::{AlgorithmSpec, Scenario};
//!
//! let (client_end, service_end) = Loopback::pair();
//! let mut client = ServiceClient::new(client_end);
//! let mut service = ServiceEndpoint::new(SessionManager::with_workers(2), service_end);
//!
//! // Each tenant opens its own session; seeds line up with Sweep's.
//! let config = SessionConfig::default();
//! for tenant in 0..4 {
//!     client.open_scenario(
//!         SessionId(tenant),
//!         AlgorithmSpec::Gathering,
//!         Scenario::Uniform,
//!         16,
//!         1_000 + tenant,
//!         &config,
//!     )?;
//! }
//!
//! // Drive the service until every session resolves, then drain replies.
//! service.run_until_idle()?;
//! let mut done = 0;
//! while let Some(reply) = client.poll_result()? {
//!     match reply {
//!         WireResult::Result { result, .. } => {
//!             assert!(result.completion.terminated());
//!             done += 1;
//!         }
//!         WireResult::Error { session, message } => {
//!             panic!("session {session} failed: {message}");
//!         }
//!     }
//! }
//! assert_eq!(done, 4);
//! # Ok::<(), doda_service::ServiceError>(())
//! ```

pub mod error;
pub mod manager;
pub mod session;
pub mod transport;
pub mod wire;

pub use error::{ServiceError, WireError};
pub use manager::SessionManager;
pub use session::{OverflowPolicy, SessionConfig, SessionId, SessionStatus};
pub use transport::{FrameBuf, Loopback, ServiceClient, ServiceEndpoint, Transport};
pub use wire::{
    decode_event, decode_result, encode_event, encode_event_into, encode_result,
    encode_result_into, WireEvent, WireResult, WIRE_VERSION,
};

/// Everything a service integrator usually needs, in one import.
pub mod prelude {
    pub use crate::error::{ServiceError, WireError};
    pub use crate::manager::SessionManager;
    pub use crate::session::{OverflowPolicy, SessionConfig, SessionId, SessionStatus};
    pub use crate::transport::{FrameBuf, Loopback, ServiceClient, ServiceEndpoint, Transport};
    pub use crate::wire::{WireEvent, WireResult, WIRE_VERSION};
}
