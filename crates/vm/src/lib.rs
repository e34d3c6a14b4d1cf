//! # swifi-vm — the P601-lite virtual machine
//!
//! A deterministic 32-bit RISC virtual machine with first-class
//! fault-injection hooks, built as the execution substrate for reproducing
//! *Madeira, Costa, Vieira — "On the Emulation of Software Faults by
//! Software Fault Injection" (DSN 2000)*.
//!
//! The paper's experiments ran on a Parsytec PowerXplorer (4× PowerPC 601)
//! with the Xception fault injector. This crate substitutes that hardware
//! with an ISA-level emulator that exposes the same *architectural fault
//! surface* Xception corrupts:
//!
//! - instruction words fetched from memory ([`inspect::Inspector::on_fetch`]),
//! - operand loads/stores on the data bus
//!   ([`inspect::Inspector::on_load_value`], [`inspect::Inspector::on_store_value`]),
//! - effective addresses on the address bus
//!   ([`inspect::Inspector::on_load_addr`], [`inspect::Inspector::on_store_addr`]),
//! - general-purpose register write-back ([`inspect::Inspector::on_reg_write`]),
//! - memory itself ([`machine::Machine::poke_u32`]).
//!
//! Runs terminate in one of the paper's failure-mode observables:
//! normal completion (then compared against an oracle for
//! correct/incorrect results), a [`machine::Trap`] (crash), or budget
//! exhaustion (hang).
//!
//! # Quick start
//!
//! ```
//! use swifi_vm::asm::assemble;
//! use swifi_vm::inspect::Noop;
//! use swifi_vm::machine::{Machine, MachineConfig};
//!
//! let image = assemble("li r3, 7\nsc print_int\nli r3, 0\nhalt")?;
//! let mut machine = Machine::new(MachineConfig::default());
//! machine.load(&image);
//! let outcome = machine.run(&mut Noop);
//! assert_eq!(outcome.output(), b"7");
//! # Ok::<(), swifi_vm::asm::AsmError>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod blocks;
pub mod inspect;
pub mod isa;
pub mod machine;
pub mod mem;
pub mod trace;

pub use blocks::BlockCacheStats;
pub use inspect::{FetchPolicy, Inspector, Noop};
pub use isa::{decode, encode, Instr};
pub use machine::{
    FetchStop, FetchWatch, ForkSnapshot, InputTape, Machine, MachineConfig, MachineSnapshot,
    RunOutcome, Trap,
};
pub use mem::{DecodeCacheStats, Image, MemoryDelta, MemorySnapshot, CODE_BASE, PAGE_SIZE};
