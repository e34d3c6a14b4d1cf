//! Guest memory, executable images, and the guest heap allocator.
//!
//! The address space is flat and byte-addressed:
//!
//! ```text
//! 0x0000_0000 ┌──────────────┐
//!             │  null page   │  unmapped — dereferencing a corrupted/null
//! 0x0000_0100 ├──────────────┤  pointer traps (crash failure mode)
//!             │  code        │
//!             ├──────────────┤
//!             │  data        │  globals + string literals
//!             ├──────────────┤
//!             │  heap   ↓    │  malloc/free arena
//!             ├──────────────┤
//!             │  stacks ↑    │  one fixed-size stack per core, at the top
//!  mem_size   └──────────────┘
//! ```
//!
//! Words are stored little-endian. (The real PowerPC 601 is big-endian; the
//! choice is irrelevant to the reproduced experiments, which never depend on
//! byte order, and is documented here for completeness.)

use std::collections::BTreeMap;
use std::fmt;

use crate::isa::{self, Instr};
use crate::machine::Trap;

/// First mapped address; everything below is the trapping null page.
pub const NULL_PAGE_END: u32 = 0x100;

/// Default load address for code (start of mapped memory).
pub const CODE_BASE: u32 = NULL_PAGE_END;

/// log2 of the dirty-tracking page size (4 KiB pages).
pub const PAGE_SHIFT: u32 = 12;

/// Dirty-tracking page size in bytes.
pub const PAGE_SIZE: u32 = 1 << PAGE_SHIFT;

/// Counters describing the predecoded translation cache's behaviour.
///
/// Exposed per-machine through `Machine::decode_cache_stats` and rolled up
/// per-session by the campaign layer. All counters are cumulative since the
/// cache was (re)initialised by [`Memory::init_decode_cache`], i.e. since
/// program load — warm reboots deliberately do *not* reset them, so a
/// session's counters describe the whole campaign slice it executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Decoded lines materialised (including lines later invalidated and
    /// rebuilt, and lines recording an illegal word).
    pub lines_built: u64,
    /// Decoded/illegal lines reset to empty by a write into the code
    /// region (guest store, injector poke, or snapshot restore).
    pub lines_invalidated: u64,
    /// Instructions executed via the fetch→`on_fetch`→decode slow path
    /// (pinned PCs, reference mode, misaligned/out-of-range PCs).
    pub slow_fetches: u64,
}

/// One predecoded cache line, covering one word of the code region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Line {
    /// Not decoded yet (or invalidated); next fetch decodes and fills it.
    #[default]
    Empty,
    /// The word decoded cleanly; execute this without re-fetching.
    Decoded(Instr),
    /// The word does not decode; the slow path re-raises the precise trap.
    Illegal,
    /// An inspector may corrupt fetches from this PC: always take the slow
    /// path. Pins survive invalidation — a guest store to a pinned address
    /// changes the word but not the fact that the PC is armed.
    Pinned,
}

/// Lazily built predecoded instruction cache over the code region.
///
/// Indexed by `(pc - CODE_BASE) / 4`. Lives *inside* [`Memory`] so that the
/// only three mutating accessors ([`Memory::write_u32`],
/// [`Memory::write_u8`], [`Memory::write_bytes`]) and the dirty-page
/// rollback ([`Memory::restore_from`]) invalidate covering lines at the
/// source — self-modifying guests, injector pokes, and warm-reboot restores
/// all funnel through those four paths, so no staleness can escape.
#[derive(Clone, Default)]
struct ICache {
    /// One line per code word; empty vector means the cache is disabled.
    lines: Vec<Line>,
    /// First address past the cached region (`CODE_BASE + 4 * lines.len()`).
    limit: u32,
    stats: DecodeCacheStats,
    /// Pending code-write ranges (inclusive word indices) not yet applied
    /// to the basic-block cache. Every path that can change a code word or
    /// its fetch-pin state appends here; the block interpreter drains the
    /// log before each block dispatch (see `crate::blocks`).
    code_writes: Vec<(u32, u32)>,
    /// Set instead of growing `code_writes` past [`CODE_WRITE_LOG_CAP`];
    /// tells the drainer to flush every translated block. Sticky until the
    /// next drain, so writes made while no block interpreter is running
    /// are never lost.
    code_writes_overflow: bool,
}

/// Bound on the pending code-write log. Overflow degrades to a full block
/// flush, so the cap only trades precision for memory; 32 covers every
/// realistic burst (injector pokes touch 1–2 words, restores a few).
const CODE_WRITE_LOG_CAP: usize = 32;

impl ICache {
    /// Record that words `first..=last` changed (or changed pin state).
    #[inline]
    fn log_code_write(&mut self, first: u32, last: u32) {
        if self.code_writes.len() < CODE_WRITE_LOG_CAP {
            self.code_writes.push((first, last));
        } else {
            self.code_writes_overflow = true;
        }
    }
}

/// Flat guest memory with null-page protection and dirty-page tracking.
///
/// All accessors return [`Trap`]-typed errors rather than panicking so that
/// wild accesses caused by injected faults surface as the paper's *crash*
/// failure mode.
///
/// Every mutating accessor ([`Memory::write_u32`], [`Memory::write_u8`],
/// [`Memory::write_bytes`] — there are no others) marks the touched
/// [`PAGE_SIZE`]-byte page(s) in a fixed-size bitmap. A
/// [`MemorySnapshot`] taken after program load can then be restored in
/// O(pages touched since the snapshot) instead of O(memory size), which is
/// what makes the warm-reboot run engine cheap: a typical run of the
/// paper's workloads dirties a handful of stack/heap pages out of a
/// 512 KiB–1 MiB address space.
#[derive(Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    /// One bit per [`PAGE_SIZE`]-byte page, set by every write since the
    /// last [`Memory::snapshot`] / [`Memory::restore_from`].
    dirty: Vec<u64>,
    /// One bit per page overlaid by the last [`Memory::restore_fork_from`]:
    /// pages whose *current* contents differ from the base snapshot even
    /// though no write dirtied them afterwards. The next restore (plain or
    /// fork) must treat them exactly like dirty pages.
    restored_delta: Vec<u64>,
    /// Predecoded translation cache over the code region (disabled until
    /// [`Memory::init_decode_cache`]).
    icache: ICache,
}

/// A sparse copy of the pages that diverge from the base
/// [`MemorySnapshot`], produced by [`Memory::fork_delta`] and overlaid by
/// [`Memory::restore_fork_from`].
///
/// This is the memory half of a prefix-fork snapshot: a run paused at its
/// trigger point has touched only a handful of stack/heap pages, so the
/// delta stores just those pages instead of a second full-memory copy.
#[derive(Clone)]
pub struct MemoryDelta {
    /// `(page index, page contents)`, sorted by page index.
    pages: Vec<(u32, Box<[u8]>)>,
    /// Size of the memory the delta was taken from, for compatibility
    /// checks.
    size: u32,
}

impl fmt::Debug for MemoryDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryDelta")
            .field("pages", &self.pages.len())
            .field("size", &self.size)
            .finish()
    }
}

impl MemoryDelta {
    /// Number of pages stored in the delta.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Approximate heap footprint of the delta in bytes (for cache
    /// bounding diagnostics).
    pub fn byte_count(&self) -> usize {
        self.pages.iter().map(|(_, b)| b.len()).sum()
    }
}

/// A point-in-time full copy of guest memory, produced by
/// [`Memory::snapshot`] and consumed by [`Memory::restore_from`].
///
/// The snapshot itself is a plain byte copy; the *restore* is what is
/// incremental (only pages dirtied since the snapshot are copied back).
#[derive(Clone)]
pub struct MemorySnapshot {
    bytes: Vec<u8>,
}

impl fmt::Debug for MemorySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemorySnapshot")
            .field("size", &self.bytes.len())
            .finish()
    }
}

impl MemorySnapshot {
    /// Size of the snapshotted memory in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("size", &self.bytes.len())
            .finish()
    }
}

impl Memory {
    /// Create a zeroed memory of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is smaller than one page (256 bytes) or not
    /// word-aligned; these are configuration errors, not runtime faults.
    pub fn new(size: u32) -> Memory {
        assert!(size >= 2 * NULL_PAGE_END, "memory too small: {size}");
        assert_eq!(size % 4, 0, "memory size must be word aligned");
        let pages = (size as usize).div_ceil(PAGE_SIZE as usize);
        Memory {
            bytes: vec![0; size as usize],
            dirty: vec![0; pages.div_ceil(64)],
            restored_delta: vec![0; pages.div_ceil(64)],
            icache: ICache::default(),
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    #[inline]
    fn check(&self, addr: u32, len: u32) -> Result<(), Trap> {
        if addr < NULL_PAGE_END || (addr as u64) + (len as u64) > self.bytes.len() as u64 {
            return Err(Trap::Unmapped { addr });
        }
        Ok(())
    }

    /// Mark the pages covering `[addr, addr + len)` dirty. Callers pass
    /// already-bounds-checked ranges with `len >= 1`.
    #[inline]
    fn mark_dirty(&mut self, addr: u32, len: u32) {
        let first = (addr >> PAGE_SHIFT) as usize;
        let last = ((addr + len - 1) >> PAGE_SHIFT) as usize;
        for page in first..=last {
            self.dirty[page / 64] |= 1u64 << (page % 64);
        }
    }

    /// Take a full-copy snapshot of the current contents and reset the
    /// dirty bitmap, establishing the baseline that a later
    /// [`Memory::restore_from`] rolls back to.
    pub fn snapshot(&mut self) -> MemorySnapshot {
        self.dirty.iter_mut().for_each(|w| *w = 0);
        self.restored_delta.iter_mut().for_each(|w| *w = 0);
        MemorySnapshot {
            bytes: self.bytes.clone(),
        }
    }

    /// Copy `src` (the target contents for `[start, end)`) into place,
    /// word-diffing code pages first so only the lines whose words
    /// actually change are invalidated — one patched word costs one
    /// rebuilt line, not a whole page of them.
    fn copy_page_checked(&mut self, start: usize, end: usize, src: &[u8]) {
        if (start as u32) < self.icache.limit {
            let mut a = start;
            while a < end {
                if self.bytes[a..a + 4] != src[a - start..a - start + 4] {
                    self.invalidate_decoded(a as u32, 4);
                }
                a += 4;
            }
        }
        self.bytes[start..end].copy_from_slice(src);
    }

    /// Roll memory back to `snap`, copying **only the pages dirtied since
    /// the snapshot was taken** (or since the last restore), then clear
    /// the dirty bitmap.
    ///
    /// This is semantically identical to replacing the whole contents with
    /// the snapshot — provided `snap` was taken from *this* memory and no
    /// other snapshot baseline has been interleaved, which is the contract
    /// the warm-reboot engine maintains (one snapshot per loaded machine).
    ///
    /// # Panics
    ///
    /// Panics if `snap` has a different size (a configuration error).
    pub fn restore_from(&mut self, snap: &MemorySnapshot) {
        assert_eq!(
            self.bytes.len(),
            snap.bytes.len(),
            "snapshot/memory size mismatch: snapshot is for a different machine"
        );
        let size = self.bytes.len();
        for word_idx in 0..self.dirty.len() {
            // Pages overlaid by a fork restore diverge from the baseline
            // even when nothing wrote to them afterwards; fold them in.
            let mut w = self.dirty[word_idx] | self.restored_delta[word_idx];
            self.dirty[word_idx] = 0;
            self.restored_delta[word_idx] = 0;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                let page = word_idx * 64 + bit;
                let start = page << PAGE_SHIFT;
                let end = (start + PAGE_SIZE as usize).min(size);
                self.copy_page_checked(start, end, &snap.bytes[start..end]);
            }
        }
    }

    /// Capture the pages that currently diverge from the base snapshot
    /// (dirty since the last restore, plus any pages overlaid by a prior
    /// [`Memory::restore_fork_from`]) as a sparse [`MemoryDelta`].
    ///
    /// Non-destructive: the dirty bitmaps are left untouched, so the run
    /// that produced the state can simply continue.
    pub fn fork_delta(&self) -> MemoryDelta {
        let size = self.bytes.len();
        let mut pages = Vec::new();
        for word_idx in 0..self.dirty.len() {
            let mut w = self.dirty[word_idx] | self.restored_delta[word_idx];
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                let page = word_idx * 64 + bit;
                let start = page << PAGE_SHIFT;
                let end = (start + PAGE_SIZE as usize).min(size);
                pages.push((
                    page as u32,
                    self.bytes[start..end].to_vec().into_boxed_slice(),
                ));
            }
        }
        MemoryDelta {
            pages,
            size: size as u32,
        }
    }

    /// Restore to `base` *overlaid with* `delta`: the memory state a run
    /// had when [`Memory::fork_delta`] was captured.
    ///
    /// Cost is O(pages currently diverging from base + pages in the
    /// delta). Afterwards the dirty bitmap is clear and the delta's pages
    /// are remembered in `restored_delta`, so the next restore (plain or
    /// fork) knows to roll them back too. Decoded lines covering changed
    /// code words are invalidated exactly as in [`Memory::restore_from`].
    ///
    /// `delta` may come from a *different* `Memory` as long as both were
    /// loaded identically (same size, byte-identical base snapshot) —
    /// which is how pooled campaign workers share one prefix cache.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `delta` was taken from a different-size memory.
    pub fn restore_fork_from(&mut self, base: &MemorySnapshot, delta: &MemoryDelta) {
        assert_eq!(
            self.bytes.len(),
            base.bytes.len(),
            "snapshot/memory size mismatch: snapshot is for a different machine"
        );
        assert_eq!(
            self.bytes.len() as u32,
            delta.size,
            "fork delta/memory size mismatch: delta is for a different machine"
        );
        let size = self.bytes.len();
        let in_delta = |page: u32| delta.pages.binary_search_by_key(&page, |&(p, _)| p).is_ok();
        for word_idx in 0..self.dirty.len() {
            let mut w = self.dirty[word_idx] | self.restored_delta[word_idx];
            self.dirty[word_idx] = 0;
            self.restored_delta[word_idx] = 0;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                let page = word_idx * 64 + bit;
                if in_delta(page as u32) {
                    continue; // overlaid below
                }
                let start = page << PAGE_SHIFT;
                let end = (start + PAGE_SIZE as usize).min(size);
                self.copy_page_checked(start, end, &base.bytes[start..end]);
            }
        }
        for (page, bytes) in &delta.pages {
            let page = *page as usize;
            let start = page << PAGE_SHIFT;
            let end = (start + PAGE_SIZE as usize).min(size);
            self.copy_page_checked(start, end, bytes);
            self.restored_delta[page / 64] |= 1u64 << (page % 64);
        }
    }

    /// Number of pages currently marked dirty (diagnostic: a warm restore
    /// copies exactly this many pages).
    pub fn dirty_pages(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// How many of the dirty pages overlap the cached code region: a
    /// restore compares those word by word to keep decoded lines coherent.
    pub fn dirty_code_pages(&self) -> usize {
        let pages = self.icache.limit.div_ceil(PAGE_SIZE) as usize;
        (0..pages)
            .filter(|&p| self.dirty[p / 64] >> (p % 64) & 1 == 1)
            .count()
    }

    /// (Re)initialise the predecoded translation cache over
    /// `[CODE_BASE, code_end)`, clearing all lines, pins, and statistics.
    ///
    /// Called by `Machine::load` once the code words are in place. Decoding
    /// is lazy: lines fill on first execution, so programs pay only for the
    /// code they actually run.
    pub fn init_decode_cache(&mut self, code_end: u32) {
        let words = ((code_end.max(CODE_BASE) - CODE_BASE) / 4) as usize;
        self.icache.lines.clear();
        self.icache.lines.resize(words, Line::Empty);
        self.icache.limit = CODE_BASE + words as u32 * 4;
        self.icache.stats = DecodeCacheStats::default();
        // `Machine::load` reinitialises the block cache alongside this,
        // so writes logged during image loading are moot.
        self.icache.code_writes.clear();
        self.icache.code_writes_overflow = false;
    }

    /// Whether any code words changed (or changed pin state) since the
    /// last [`Memory::drain_code_writes`]. Cheap enough for a per-dispatch
    /// check in the block interpreter.
    #[inline]
    pub(crate) fn has_code_writes(&self) -> bool {
        !self.icache.code_writes.is_empty() || self.icache.code_writes_overflow
    }

    /// Drain the pending code-write log, passing each changed range of
    /// word indices (inclusive) to `f`. Returns `true` when the log
    /// overflowed, in which case `f` is *not* called and the caller must
    /// conservatively flush every translated block.
    pub(crate) fn drain_code_writes(&mut self, mut f: impl FnMut(u32, u32)) -> bool {
        let overflow = self.icache.code_writes_overflow;
        self.icache.code_writes_overflow = false;
        if overflow {
            self.icache.code_writes.clear();
            return true;
        }
        for (first, last) in self.icache.code_writes.drain(..) {
            f(first, last);
        }
        false
    }

    /// Fetch the decoded instruction at `pc` from the translation cache,
    /// building the line on first touch.
    ///
    /// Returns `None` whenever the slow fetch→hook→decode path must run
    /// instead: `pc` outside or misaligned within the cached region, a
    /// pinned (fetch-armed) line, or a word that previously failed to
    /// decode (the slow path re-raises the precise `IllegalInstruction`
    /// trap with the offending word).
    #[inline]
    pub(crate) fn fetch_decoded(&mut self, pc: u32) -> Option<Instr> {
        // `pc < CODE_BASE` wraps to a huge offset and `pc >= limit` lands
        // past the vector, so a single length-checked `get` covers both
        // range tests; only alignment needs an explicit check.
        let off = pc.wrapping_sub(CODE_BASE);
        if off & 3 != 0 {
            return None;
        }
        let idx = (off >> 2) as usize;
        match self.icache.lines.get(idx).copied() {
            None => None,
            Some(Line::Decoded(i)) => Some(i),
            Some(Line::Empty) => self.build_line(pc, idx),
            Some(Line::Illegal) | Some(Line::Pinned) => None,
        }
    }

    /// Decode the code word at `pc` into line `idx` (first touch after
    /// load or invalidation). Out of line so the hot
    /// [`Memory::fetch_decoded`] path stays small enough to inline.
    #[cold]
    fn build_line(&mut self, pc: u32, idx: usize) -> Option<Instr> {
        let b = pc as usize;
        let word = u32::from_le_bytes([
            self.bytes[b],
            self.bytes[b + 1],
            self.bytes[b + 2],
            self.bytes[b + 3],
        ]);
        self.icache.stats.lines_built += 1;
        match isa::decode(word) {
            Ok(i) => {
                self.icache.lines[idx] = Line::Decoded(i);
                Some(i)
            }
            Err(_) => {
                self.icache.lines[idx] = Line::Illegal;
                None
            }
        }
    }

    /// Invalidate every decoded line covering `[addr, addr + len)`.
    ///
    /// Pinned lines stay pinned: a write to an armed PC changes the word
    /// but not the fact that fetches from it must take the slow path.
    /// The early-out makes this free for the overwhelmingly common case of
    /// stores above the code region (data/heap/stack).
    #[inline]
    fn invalidate_decoded(&mut self, addr: u32, len: u32) {
        if addr >= self.icache.limit || len == 0 || addr + len <= CODE_BASE {
            return;
        }
        let first = (addr.max(CODE_BASE) - CODE_BASE) as usize / 4;
        let last = (((addr + len - 1).min(self.icache.limit - 1)) - CODE_BASE) as usize / 4;
        // The block cache must see every write into code, even to words
        // whose lines are Empty or Pinned — a block can cover those too.
        self.icache.log_code_write(first as u32, last as u32);
        for line in &mut self.icache.lines[first..=last] {
            match *line {
                Line::Decoded(_) | Line::Illegal => {
                    *line = Line::Empty;
                    self.icache.stats.lines_invalidated += 1;
                }
                Line::Empty | Line::Pinned => {}
            }
        }
    }

    /// Pin `pc` to the slow fetch path (an inspector may corrupt fetches
    /// from it). No-op outside the cached region — the slow path already
    /// covers such PCs.
    pub(crate) fn pin_fetch_slow(&mut self, pc: u32) {
        if pc >= CODE_BASE && pc < self.icache.limit && pc.is_multiple_of(4) {
            let idx = ((pc - CODE_BASE) / 4) as usize;
            self.icache.lines[idx] = Line::Pinned;
            // Blocks covering a newly armed PC must die so fetches from it
            // funnel through the single-step slow path.
            self.icache.log_code_write(idx as u32, idx as u32);
        }
    }

    /// Remove a pin installed by [`Memory::pin_fetch_slow`], returning the
    /// line to the lazily-decoded state.
    pub(crate) fn unpin_fetch(&mut self, pc: u32) {
        if pc >= CODE_BASE && pc < self.icache.limit && pc.is_multiple_of(4) {
            let idx = ((pc - CODE_BASE) / 4) as usize;
            if self.icache.lines[idx] == Line::Pinned {
                self.icache.lines[idx] = Line::Empty;
                // Blocks truncated at the pin may now be extendable;
                // invalidating them lets translation take the longer form.
                self.icache.log_code_write(idx as u32, idx as u32);
            }
        }
    }

    /// Record one slow-path (fetch→hook→decode) instruction fetch.
    #[inline]
    pub(crate) fn note_slow_fetch(&mut self) {
        self.icache.stats.slow_fetches += 1;
    }

    /// Cumulative translation-cache counters since the last
    /// [`Memory::init_decode_cache`].
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.icache.stats
    }

    /// Read a little-endian word.
    ///
    /// # Errors
    ///
    /// [`Trap::Unmapped`] outside the mapped range, [`Trap::Misaligned`] for
    /// non-word-aligned addresses.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, Trap> {
        if !addr.is_multiple_of(4) {
            return Err(Trap::Misaligned { addr });
        }
        self.check(addr, 4)?;
        let i = addr as usize;
        Ok(u32::from_le_bytes([
            self.bytes[i],
            self.bytes[i + 1],
            self.bytes[i + 2],
            self.bytes[i + 3],
        ]))
    }

    /// Write a little-endian word.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::read_u32`].
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), Trap> {
        if !addr.is_multiple_of(4) {
            return Err(Trap::Misaligned { addr });
        }
        self.check(addr, 4)?;
        self.mark_dirty(addr, 4);
        self.invalidate_decoded(addr, 4);
        self.bytes[addr as usize..addr as usize + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`Trap::Unmapped`] outside the mapped range.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Result<u8, Trap> {
        self.check(addr, 1)?;
        Ok(self.bytes[addr as usize])
    }

    /// Write one byte.
    ///
    /// # Errors
    ///
    /// [`Trap::Unmapped`] outside the mapped range.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), Trap> {
        self.check(addr, 1)?;
        self.mark_dirty(addr, 1);
        self.invalidate_decoded(addr, 1);
        self.bytes[addr as usize] = value;
        Ok(())
    }

    /// Copy a byte slice into memory.
    ///
    /// # Errors
    ///
    /// [`Trap::Unmapped`] if any byte of the destination is unmapped.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), Trap> {
        if data.is_empty() {
            return Ok(());
        }
        self.check(addr, data.len() as u32)?;
        self.mark_dirty(addr, data.len() as u32);
        self.invalidate_decoded(addr, data.len() as u32);
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Read a NUL-terminated string starting at `addr`, up to `max` bytes.
    ///
    /// # Errors
    ///
    /// [`Trap::Unmapped`] if the string runs off mapped memory before a NUL.
    pub fn read_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, Trap> {
        let mut out = Vec::new();
        let mut a = addr;
        while out.len() < max as usize {
            let b = self.read_u8(a)?;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            a = a.wrapping_add(1);
        }
        Ok(out)
    }
}

/// A linked executable: code, initialised data, and layout bookkeeping.
///
/// Produced by the assembler ([`crate::asm`]) or the MiniC compiler, and
/// consumed by [`crate::machine::Machine::load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Instruction words, loaded at [`CODE_BASE`].
    pub code: Vec<u32>,
    /// Initialised data bytes, loaded immediately after the code
    /// (word-aligned).
    pub data: Vec<u8>,
    /// Entry point (defaults to [`CODE_BASE`]).
    pub entry: u32,
}

impl Image {
    /// Address at which the data segment is loaded.
    pub fn data_base(&self) -> u32 {
        CODE_BASE + self.code.len() as u32 * 4
    }

    /// First address past the static footprint, i.e. the heap base
    /// (word-aligned).
    pub fn static_end(&self) -> u32 {
        let end = self.data_base() + self.data.len() as u32;
        (end + 3) & !3
    }

    /// Address of the instruction at word index `i`.
    pub fn addr_of(&self, i: usize) -> u32 {
        CODE_BASE + i as u32 * 4
    }
}

/// First-fit guest heap allocator with host-side bookkeeping.
///
/// Block metadata lives outside guest memory so that memory corruption
/// cannot break the allocator itself, but misuse of the *interface*
/// (freeing an invalid pointer, double free) traps with
/// [`Trap::HeapFault`] — mirroring how a hardened `libc` aborts. Corrupted
/// pointers that are merely *dereferenced* still fault through the ordinary
/// memory checks, which is how the paper's dynamic-structure-heavy program
/// (C.team9) earns its high crash rate.
#[derive(Debug, Clone)]
pub struct Allocator {
    base: u32,
    limit: u32,
    brk: u32,
    live: BTreeMap<u32, u32>,
    free: BTreeMap<u32, u32>,
}

impl Allocator {
    /// Create an allocator over the guest range `[base, limit)`.
    pub fn new(base: u32, limit: u32) -> Allocator {
        let base = (base + 7) & !7;
        Allocator {
            base,
            limit,
            brk: base,
            live: BTreeMap::new(),
            free: BTreeMap::new(),
        }
    }

    /// Allocate `size` bytes (8-byte aligned); returns the guest address or
    /// `0` when the arena is exhausted (like a C `malloc` returning NULL).
    pub fn malloc(&mut self, size: u32) -> u32 {
        let size = ((size.max(1)) + 7) & !7;
        // First fit from the free list.
        if let Some((&addr, &fsize)) = self.free.iter().find(|&(_, &s)| s >= size) {
            self.free.remove(&addr);
            if fsize > size {
                self.free.insert(addr + size, fsize - size);
            }
            self.live.insert(addr, size);
            return addr;
        }
        // Bump allocation.
        if self
            .brk
            .checked_add(size)
            .is_none_or(|end| end > self.limit)
        {
            return 0;
        }
        let addr = self.brk;
        self.brk += size;
        self.live.insert(addr, size);
        addr
    }

    /// Release a block previously returned by [`Allocator::malloc`].
    ///
    /// # Errors
    ///
    /// [`Trap::HeapFault`] if `ptr` is not the base of a live block
    /// (wild free, double free).
    pub fn free(&mut self, ptr: u32) -> Result<(), Trap> {
        match self.live.remove(&ptr) {
            Some(size) => {
                // Coalesce with right neighbour.
                let mut addr = ptr;
                let mut size = size;
                if let Some(&next) = self.free.get(&(addr + size)) {
                    self.free.remove(&(addr + size));
                    size += next;
                }
                // Coalesce with left neighbour.
                if let Some((&prev, &psize)) = self.free.range(..addr).next_back() {
                    if prev + psize == addr {
                        self.free.remove(&prev);
                        addr = prev;
                        size += psize;
                    }
                }
                self.free.insert(addr, size);
                Ok(())
            }
            None => Err(Trap::HeapFault { addr: ptr }),
        }
    }

    /// Base address of the arena.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of live blocks (diagnostic).
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }

    /// Total bytes currently allocated (diagnostic).
    pub fn live_bytes(&self) -> u64 {
        self.live.values().map(|&s| s as u64).sum()
    }

    /// Whether `addr` falls strictly inside a live block's payload.
    pub fn owns(&self, addr: u32) -> bool {
        self.live
            .range(..=addr)
            .next_back()
            .is_some_and(|(&base, &size)| addr >= base && addr < base + size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_page_traps() {
        let m = Memory::new(4096);
        assert_eq!(m.read_u32(0), Err(Trap::Unmapped { addr: 0 }));
        assert_eq!(m.read_u8(0xFF), Err(Trap::Unmapped { addr: 0xFF }));
        assert!(m.read_u8(0x100).is_ok());
    }

    #[test]
    fn out_of_range_traps() {
        let mut m = Memory::new(4096);
        assert!(m.read_u32(4096).is_err());
        assert!(m.read_u32(4094).is_err()); // straddles the end
        assert!(m.write_u8(4095, 1).is_ok());
    }

    #[test]
    fn misaligned_word_traps() {
        let m = Memory::new(4096);
        assert_eq!(m.read_u32(0x102), Err(Trap::Misaligned { addr: 0x102 }));
    }

    #[test]
    fn word_round_trip() {
        let mut m = Memory::new(4096);
        m.write_u32(0x200, 0xDEADBEEF).unwrap();
        assert_eq!(m.read_u32(0x200).unwrap(), 0xDEADBEEF);
        assert_eq!(m.read_u8(0x200).unwrap(), 0xEF); // little-endian
    }

    #[test]
    fn cstr_reads_until_nul() {
        let mut m = Memory::new(4096);
        m.write_bytes(0x300, b"hi\0zz").unwrap();
        assert_eq!(m.read_cstr(0x300, 64).unwrap(), b"hi".to_vec());
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut m = Memory::new(64 * 1024);
        m.write_u32(0x200, 0x11111111).unwrap();
        let snap = m.snapshot();
        assert_eq!(m.dirty_pages(), 0, "snapshot clears the dirty bitmap");

        m.write_u32(0x200, 0x22222222).unwrap();
        m.write_u8(0x5000, 7).unwrap();
        m.write_bytes(0x8FFE, &[1, 2, 3, 4]).unwrap(); // straddles a page boundary
        assert_eq!(m.dirty_pages(), 4);

        m.restore_from(&snap);
        assert_eq!(m.read_u32(0x200).unwrap(), 0x11111111);
        assert_eq!(m.read_u8(0x5000).unwrap(), 0);
        assert_eq!(m.read_u8(0x8FFF).unwrap(), 0);
        assert_eq!(m.read_u8(0x9000).unwrap(), 0);
        assert_eq!(m.dirty_pages(), 0, "restore clears the dirty bitmap");
    }

    #[test]
    fn restore_is_equivalent_to_full_copy() {
        // Dirty a pseudo-random set of locations, restore, and compare
        // against a memory that never diverged.
        let mut m = Memory::new(128 * 1024);
        for i in 0..32u32 {
            m.write_u32(0x100 + i * 4096, i).unwrap();
        }
        let snap = m.snapshot();
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = 0x100 + (state >> 33) as u32 % (128 * 1024 - 0x110);
            m.write_u8(addr, (state >> 16) as u8).unwrap();
        }
        m.restore_from(&snap);
        for i in 0..32u32 {
            assert_eq!(m.read_u32(0x100 + i * 4096).unwrap(), i);
        }
        // Every byte must match the snapshot, not just the probed words.
        for addr in (0x100..128 * 1024).step_by(97) {
            assert_eq!(m.read_u8(addr).unwrap(), snap.bytes[addr as usize]);
        }
    }

    #[test]
    fn repeated_restores_from_one_snapshot() {
        let mut m = Memory::new(16 * 1024);
        m.write_bytes(0x400, b"baseline").unwrap();
        let snap = m.snapshot();
        for round in 0..5u8 {
            m.write_bytes(0x400, &[round; 8]).unwrap();
            m.write_u8(0x3FF0 - u32::from(round) * 16, round + 1)
                .unwrap();
            m.restore_from(&snap);
            assert_eq!(m.read_cstr(0x400, 16).unwrap(), b"baseline".to_vec());
            assert_eq!(m.read_u8(0x3FF0 - u32::from(round) * 16).unwrap(), 0);
        }
    }

    #[test]
    fn fork_delta_round_trip() {
        let mut m = Memory::new(64 * 1024);
        m.write_bytes(0x400, b"base").unwrap();
        let base = m.snapshot();

        // "Prefix" run: dirty a couple of pages, capture the fork point.
        m.write_bytes(0x400, b"frk!").unwrap();
        m.write_u8(0x5000, 9).unwrap();
        let delta = m.fork_delta();
        assert_eq!(delta.page_count(), 2);
        assert!(delta.byte_count() > 0);

        // The capture is non-destructive: the run continues and dirties
        // another page, which the fork restore must roll back.
        m.write_u8(0x8000, 1).unwrap();

        m.restore_fork_from(&base, &delta);
        assert_eq!(m.read_cstr(0x400, 8).unwrap(), b"frk!".to_vec());
        assert_eq!(m.read_u8(0x5000).unwrap(), 9);
        assert_eq!(m.read_u8(0x8000).unwrap(), 0);
        assert_eq!(m.dirty_pages(), 0, "fork restore clears the dirty bitmap");

        // A plain restore afterwards recovers the baseline even though the
        // delta pages were never re-dirtied.
        m.restore_from(&base);
        assert_eq!(m.read_cstr(0x400, 8).unwrap(), b"base".to_vec());
        assert_eq!(m.read_u8(0x5000).unwrap(), 0);
    }

    #[test]
    fn back_to_back_fork_restores() {
        let mut m = Memory::new(64 * 1024);
        let base = m.snapshot();
        m.write_u8(0x5000, 1).unwrap();
        let d1 = m.fork_delta();
        m.restore_from(&base);
        m.write_u8(0x9000, 2).unwrap();
        let d2 = m.fork_delta();
        m.restore_fork_from(&base, &d1);
        // No plain restore in between: d1's overlay must be rolled back.
        m.restore_fork_from(&base, &d2);
        assert_eq!(m.read_u8(0x5000).unwrap(), 0, "d1 page rolled back");
        assert_eq!(m.read_u8(0x9000).unwrap(), 2);
    }

    #[test]
    fn fork_restore_invalidates_changed_code_words() {
        let mut m = Memory::new(16 * 1024);
        let nop = isa::NOP;
        let nop_i = isa::decode(nop).unwrap();
        m.write_u32(CODE_BASE, nop).unwrap();
        m.init_decode_cache(CODE_BASE + 4);
        let base = m.snapshot();
        m.write_u32(CODE_BASE, isa::encode(isa::Instr::Halt))
            .unwrap();
        let delta = m.fork_delta();
        m.restore_from(&base);
        assert_eq!(m.fetch_decoded(CODE_BASE), Some(nop_i));
        m.restore_fork_from(&base, &delta);
        assert_eq!(m.fetch_decoded(CODE_BASE), Some(isa::Instr::Halt));
        m.restore_from(&base);
        assert_eq!(m.fetch_decoded(CODE_BASE), Some(nop_i));
    }

    #[test]
    fn foreign_fork_delta_applies_to_identical_twin() {
        // Two identically-initialised memories (pooled workers): a delta
        // captured on one must restore correctly on the other.
        let mut a = Memory::new(32 * 1024);
        let mut b = Memory::new(32 * 1024);
        a.write_bytes(0x400, b"twin").unwrap();
        b.write_bytes(0x400, b"twin").unwrap();
        let _base_a = a.snapshot();
        let base_b = b.snapshot();
        a.write_u8(0x2000, 5).unwrap();
        let delta = a.fork_delta();
        b.write_u8(0x3000, 9).unwrap(); // b has its own divergence
        b.restore_fork_from(&base_b, &delta);
        assert_eq!(b.read_u8(0x2000).unwrap(), 5);
        assert_eq!(b.read_u8(0x3000).unwrap(), 0);
        assert_eq!(b.read_cstr(0x400, 8).unwrap(), b"twin".to_vec());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn restore_rejects_foreign_snapshot() {
        let mut a = Memory::new(4096);
        let mut b = Memory::new(8192);
        let snap = a.snapshot();
        b.restore_from(&snap);
    }

    #[test]
    fn empty_write_is_a_no_op() {
        let mut m = Memory::new(4096);
        let snap = m.snapshot();
        m.write_bytes(0x200, &[]).unwrap();
        assert_eq!(m.dirty_pages(), 0);
        m.restore_from(&snap);
    }

    #[test]
    fn decode_cache_builds_lazily_and_hits() {
        let mut m = Memory::new(4096);
        let nop = isa::NOP;
        let nop_i = isa::decode(nop).unwrap();
        m.write_u32(CODE_BASE, nop).unwrap();
        m.write_u32(CODE_BASE + 4, nop).unwrap();
        m.init_decode_cache(CODE_BASE + 8);

        assert_eq!(m.decode_cache_stats().lines_built, 0);
        assert_eq!(m.fetch_decoded(CODE_BASE), Some(nop_i));
        assert_eq!(m.decode_cache_stats().lines_built, 1);
        // Second fetch is a hit: no new line built.
        assert_eq!(m.fetch_decoded(CODE_BASE), Some(nop_i));
        assert_eq!(m.decode_cache_stats().lines_built, 1);
        // Outside the cached region / misaligned → slow path.
        assert_eq!(m.fetch_decoded(CODE_BASE + 8), None);
        assert_eq!(m.fetch_decoded(CODE_BASE + 2), None);
        assert_eq!(m.fetch_decoded(0), None);
    }

    #[test]
    fn decode_cache_records_illegal_words() {
        let mut m = Memory::new(4096);
        m.write_u32(CODE_BASE, 0).unwrap(); // zero word is illegal
        m.init_decode_cache(CODE_BASE + 4);
        assert_eq!(m.fetch_decoded(CODE_BASE), None);
        assert_eq!(m.decode_cache_stats().lines_built, 1);
        // Stays on the slow path without rebuilding the line.
        assert_eq!(m.fetch_decoded(CODE_BASE), None);
        assert_eq!(m.decode_cache_stats().lines_built, 1);
    }

    #[test]
    fn writes_into_code_invalidate_covering_lines() {
        let mut m = Memory::new(4096);
        let nop = isa::NOP;
        let nop_i = isa::decode(nop).unwrap();
        for i in 0..4 {
            m.write_u32(CODE_BASE + i * 4, nop).unwrap();
        }
        m.init_decode_cache(CODE_BASE + 16);
        for i in 0..4 {
            assert!(m.fetch_decoded(CODE_BASE + i * 4).is_some());
        }

        // Word write: exactly one line invalidated, then rebuilt with the
        // new contents.
        let halt = isa::encode(isa::Instr::Halt);
        m.write_u32(CODE_BASE + 4, halt).unwrap();
        assert_eq!(m.decode_cache_stats().lines_invalidated, 1);
        assert_eq!(m.fetch_decoded(CODE_BASE + 4), Some(isa::Instr::Halt));
        assert_eq!(m.fetch_decoded(CODE_BASE), Some(nop_i));

        // Byte write invalidates the covering word line.
        m.write_u8(CODE_BASE + 9, 0xFF).unwrap();
        assert_eq!(m.decode_cache_stats().lines_invalidated, 2);

        // Writes above the cached region never invalidate.
        let before = m.decode_cache_stats().lines_invalidated;
        m.write_u32(0x800, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.decode_cache_stats().lines_invalidated, before);
    }

    #[test]
    fn restore_invalidates_restored_code_pages() {
        let mut m = Memory::new(16 * 1024);
        let nop = isa::NOP;
        let nop_i = isa::decode(nop).unwrap();
        m.write_u32(CODE_BASE, nop).unwrap();
        m.init_decode_cache(CODE_BASE + 4);
        let snap = m.snapshot();

        // Patch the code, decode the patched word, then roll back.
        m.write_u32(CODE_BASE, isa::encode(isa::Instr::Halt))
            .unwrap();
        assert_eq!(m.fetch_decoded(CODE_BASE), Some(isa::Instr::Halt));
        m.restore_from(&snap);
        // The restored word must be re-decoded, not served stale.
        assert_eq!(m.fetch_decoded(CODE_BASE), Some(nop_i));
    }

    #[test]
    fn pinned_lines_stay_slow_and_survive_invalidation() {
        let mut m = Memory::new(4096);
        let nop = isa::NOP;
        let nop_i = isa::decode(nop).unwrap();
        m.write_u32(CODE_BASE, nop).unwrap();
        m.init_decode_cache(CODE_BASE + 4);

        m.pin_fetch_slow(CODE_BASE);
        assert_eq!(m.fetch_decoded(CODE_BASE), None, "pinned → slow path");
        // A write to the pinned word must not quietly unpin it.
        m.write_u32(CODE_BASE, nop).unwrap();
        assert_eq!(m.fetch_decoded(CODE_BASE), None, "pin survives writes");

        m.unpin_fetch(CODE_BASE);
        assert_eq!(m.fetch_decoded(CODE_BASE), Some(nop_i));
        // Unpinning a non-pinned (now decoded) line is a no-op.
        m.unpin_fetch(CODE_BASE);
        assert_eq!(m.fetch_decoded(CODE_BASE), Some(nop_i));
    }

    #[test]
    fn code_write_log_records_stores_pins_and_overflow() {
        let mut m = Memory::new(8 * 1024);
        let nop = isa::NOP;
        for i in 0..64u32 {
            m.write_u32(CODE_BASE + i * 4, nop).unwrap();
        }
        m.init_decode_cache(CODE_BASE + 64 * 4);
        assert!(!m.has_code_writes(), "init clears the log");

        m.write_u32(CODE_BASE + 8, nop).unwrap();
        m.write_u8(CODE_BASE + 13, 1).unwrap();
        m.pin_fetch_slow(CODE_BASE + 20);
        m.unpin_fetch(CODE_BASE + 20);
        assert!(m.has_code_writes());
        let mut ranges = Vec::new();
        let overflow = m.drain_code_writes(|a, b| ranges.push((a, b)));
        assert!(!overflow);
        assert_eq!(ranges, vec![(2, 2), (3, 3), (5, 5), (5, 5)]);
        assert!(!m.has_code_writes(), "drain empties the log");

        // Stores above the code region never log.
        m.write_u32(0x1000, 7).unwrap();
        assert!(!m.has_code_writes());

        // Unpinning a non-pinned line does not log.
        m.unpin_fetch(CODE_BASE + 24);
        assert!(!m.has_code_writes());

        // Overflow degrades to a flush-all signal and stays sticky until
        // drained.
        for i in 0..40u32 {
            m.write_u32(CODE_BASE + i * 4, nop).unwrap();
        }
        assert!(m.has_code_writes());
        let mut calls = 0;
        assert!(m.drain_code_writes(|_, _| calls += 1));
        assert_eq!(calls, 0, "overflow drain reports no ranges");
        assert!(!m.has_code_writes());
    }

    #[test]
    fn image_layout() {
        let img = Image {
            code: vec![0; 10],
            data: vec![1, 2, 3],
            entry: CODE_BASE,
        };
        assert_eq!(img.data_base(), 0x100 + 40);
        assert_eq!(img.static_end(), 0x100 + 44); // 43 rounded up
        assert_eq!(img.addr_of(2), 0x108);
    }

    #[test]
    fn alloc_basic_and_reuse() {
        let mut a = Allocator::new(0x1000, 0x2000);
        let p1 = a.malloc(16);
        let p2 = a.malloc(16);
        assert_ne!(p1, 0);
        assert_ne!(p2, 0);
        assert_ne!(p1, p2);
        a.free(p1).unwrap();
        let p3 = a.malloc(8);
        assert_eq!(p3, p1, "freed block is reused first-fit");
    }

    #[test]
    fn alloc_exhaustion_returns_null() {
        let mut a = Allocator::new(0x1000, 0x1040);
        assert_ne!(a.malloc(32), 0);
        assert_ne!(a.malloc(32), 0);
        assert_eq!(a.malloc(8), 0);
    }

    #[test]
    fn double_free_traps() {
        let mut a = Allocator::new(0x1000, 0x2000);
        let p = a.malloc(8);
        a.free(p).unwrap();
        assert_eq!(a.free(p), Err(Trap::HeapFault { addr: p }));
    }

    #[test]
    fn wild_free_traps() {
        let mut a = Allocator::new(0x1000, 0x2000);
        let _ = a.malloc(8);
        assert!(a.free(0x1004).is_err());
        assert!(a.free(0xBEEF).is_err());
    }

    #[test]
    fn coalescing_allows_big_realloc() {
        let mut a = Allocator::new(0x1000, 0x1080);
        let p1 = a.malloc(64);
        let p2 = a.malloc(64);
        assert_ne!(p2, 0);
        assert_eq!(a.malloc(8), 0, "arena full");
        a.free(p1).unwrap();
        a.free(p2).unwrap();
        // After coalescing both halves, a 128-byte block must fit again.
        assert_ne!(a.malloc(128), 0);
    }

    #[test]
    fn owns_tracks_payload() {
        let mut a = Allocator::new(0x1000, 0x2000);
        let p = a.malloc(16);
        assert!(a.owns(p));
        assert!(a.owns(p + 15));
        assert!(!a.owns(p + 16));
        a.free(p).unwrap();
        assert!(!a.owns(p));
    }
}
