//! # swifi-core — the Xception-model software fault injector
//!
//! The primary contribution of the reproduced paper — *Madeira, Costa,
//! Vieira, "On the Emulation of Software Faults by Software Fault
//! Injection" (DSN 2000)* — is an experimental method for judging whether
//! a SWIFI tool can emulate *software* faults. This crate implements that
//! method's machinery:
//!
//! - [`fault`] — the What/Where/Which/When fault model (§3): bit-level
//!   [`ErrorOp`](fault::ErrorOp)s applied to architectural
//!   [`Target`](fault::Target)s, activated by
//!   [`Trigger`](fault::Trigger)s with a [`Firing`](fault::Firing)
//!   schedule;
//! - [`injector`] — [`Injector`](injector::Injector) compiles a fault set
//!   onto the VM's inspector hooks, enforcing the PowerPC 601's
//!   two-breakpoint-register budget that shapes the paper's findings;
//! - [`emulate`] — the §5 analysis: diff a corrected binary against the
//!   real faulty one and classify emulability (classes A / B / C);
//! - [`locations`] — the §6.3 procedure: enumerate assignment/checking
//!   locations from compiler debug info, choose a random subset, and
//!   generate every applicable Table-3 error type per location;
//! - [`source`] — the representation-agnostic [`FaultSource`] boundary:
//!   campaigns consume prepared [`InjectionPlan`]s whether the fault is a
//!   runtime spec armed on the base image or a recompiled source-level
//!   mutant.
//!
//! # Example: inject a checking error generated from source locations
//!
//! ```
//! use swifi_core::injector::{Injector, TriggerMode};
//! use swifi_core::locations::generate_error_set;
//! use swifi_lang::compile;
//! use swifi_vm::{Machine, MachineConfig};
//!
//! let program = compile(
//!     "void main() {
//!        int i;
//!        for (i = 0; i < 3; i = i + 1) { print_int(i); }
//!      }",
//! ).unwrap();
//! let set = generate_error_set(&program.debug, 0, 1, 42);
//! let fault = &set.check_faults[0]; // `<` → `<=` on the loop condition
//! let mut injector = Injector::new(vec![fault.spec], TriggerMode::Hardware, 0).unwrap();
//! let mut m = Machine::new(MachineConfig::default());
//! m.load(&program.image);
//! injector.prepare(&mut m).unwrap();
//! let outcome = m.run(&mut injector);
//! assert_eq!(outcome.output(), b"0123"); // one extra iteration
//! ```

#![warn(missing_docs)]

pub mod emulate;
pub mod fault;
pub mod injector;
pub mod locations;
pub mod source;

pub use emulate::{emulation_faults, plan_emulation, EmulationStrategy, EmulationVerdict};
pub use fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
pub use injector::{Injector, InjectorError, TriggerMode, HW_BREAKPOINTS};
pub use locations::{generate_error_set, ErrorClass, ErrorSet, GeneratedFault, LocationPlan};
pub use source::{BinarySwifiSource, FaultSource, InjectionPlan, PreparedFault};
