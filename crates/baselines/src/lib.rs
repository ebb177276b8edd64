//! Baseline serving systems from the SLINFER paper (§IX-A).
//!
//! - [`sllm`] — the ServerlessLLM-style family behind one configurable
//!   policy, [`Sllm`]:
//!   - `sllm`: event-driven **exclusive GPU allocation**; a request goes to
//!     an existing instance while it sits under the concurrency limit,
//!     otherwise a new instance takes an idle GPU, otherwise the request
//!     queues (and drops once its TTFT SLO expires).
//!   - `sllm+c`: additionally serves on AMX CPU nodes, preferring them.
//!   - `sllm+c+s`: additionally time-shares every node between two
//!     half-resource slots with the paper's reduced concurrency limits.
//! - [`groups`] — the idle-slot scan and tensor-parallel slot-group
//!   claiming shared by the exclusive-allocation baselines (one
//!   scan/grant implementation for `sllm` and PD).
//! - [`limits`] — the §IX-A concurrency-limit tables: (59, 15, 6) CPU /
//!   (160, 32, 16) GPU for full nodes and (23, 4, 6) / (71, 12, 4) for
//!   half nodes, with a profile-derived fallback for other model sizes.
//! - [`neo`] — **NEO+** (§IX-I3): exclusive GPU serving where harvested CPU
//!   cores take KV/attention offload, stretching each GPU instance's
//!   effective batch capacity at a small decode penalty.
//! - [`pd`] — prefill–decode disaggregation (§IX-G): a wrapper mode where
//!   dedicated prefill instances hand requests to decode instances over a
//!   100 Gbps link (Table III).

#![forbid(unsafe_code)]

pub mod groups;
pub mod limits;
pub mod neo;
pub mod pd;
pub mod sllm;

pub use limits::concurrency_limit;
pub use neo::NeoPlus;
pub use pd::PdSllm;
pub use sllm::{Sllm, SllmConfig};
