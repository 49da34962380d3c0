//! The two page-granular memories agree with plain byte-array models.
//!
//! `FlatMemory` materializes 4 KiB pages on first write, and
//! `AddressSpace`'s host access copies a page at a time. Both must be
//! indistinguishable from the simple model: the same values, the same
//! faults at the same addresses, zeros wherever nothing was written. Each
//! script is seeded and mixes accesses that straddle pages, end exactly at
//! the end of memory or run one byte past it, and span several pages.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use segue_colorguard::vm::AddressSpace;
use segue_colorguard::x86::emu::{AccessCtx, FlatMemory, HostBytes, MemBus};
use segue_colorguard::x86::{MemFault, Width};

const PAGE: u64 = 4096;
/// Sixteen pages and a partial one, so the end is not page-aligned.
const SIZE: u64 = 16 * PAGE + 100;
/// Pages no store touches: reads there see pages that were never written.
const HOLE: std::ops::Range<u64> = 10 * PAGE..13 * PAGE;
const CTX: AccessCtx = AccessCtx::ALL_ENABLED;
const SEEDS: u64 = 16;
const OPS: usize = 3000;

/// The reference: a plain zeroed byte vector.
struct Plain(Vec<u8>);

impl Plain {
    fn check(&self, addr: u64, len: u64) -> Result<usize, MemFault> {
        match addr.checked_add(len) {
            Some(end) if end <= self.0.len() as u64 => Ok(addr as usize),
            _ => Err(MemFault::OutOfRange { addr }),
        }
    }
}

impl HostBytes for Plain {
    fn read_unchecked(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let i = self.check(addr, buf.len() as u64)?;
        buf.copy_from_slice(&self.0[i..i + buf.len()]);
        Ok(())
    }

    fn write_unchecked(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let i = self.check(addr, bytes.len() as u64)?;
        self.0[i..i + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }
}

impl MemBus for Plain {
    fn load(&mut self, addr: u64, width: Width, _: AccessCtx) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        self.read_unchecked(addr, &mut b[..width.bytes() as usize])?;
        Ok(u64::from_le_bytes(b))
    }

    fn store(&mut self, addr: u64, width: Width, val: u64, _: AccessCtx) -> Result<(), MemFault> {
        self.write_unchecked(addr, &val.to_le_bytes()[..width.bytes() as usize])
    }
}

/// One step of a script.
#[derive(Debug, Clone)]
enum Op {
    Load(u64, Width),
    Store(u64, Width, u64),
    Load128(u64),
    Store128(u64, u128),
    Read(u64, usize),
    Write(u64, Vec<u8>),
}

/// The value an op returns, comparable across memories.
#[derive(Debug, PartialEq)]
enum Got {
    Value(u128),
    Bytes(Vec<u8>),
    Done,
}

fn apply<M: MemBus + HostBytes>(mem: &mut M, op: &Op) -> Result<Got, MemFault> {
    Ok(match op {
        Op::Load(a, w) => Got::Value(u128::from(mem.load(*a, *w, CTX)?)),
        Op::Store(a, w, v) => mem.store(*a, *w, *v, CTX).map(|()| Got::Done)?,
        Op::Load128(a) => Got::Value(mem.load128(*a, CTX)?),
        Op::Store128(a, v) => mem.store128(*a, *v, CTX).map(|()| Got::Done)?,
        Op::Read(a, n) => {
            let mut buf = vec![0u8; *n];
            mem.read_unchecked(*a, &mut buf)?;
            Got::Bytes(buf)
        }
        Op::Write(a, bytes) => mem.write_unchecked(*a, bytes).map(|()| Got::Done)?,
    })
}

/// An address near a page edge, near the end, or anywhere.
fn addr(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(1..=SIZE / PAGE) * PAGE - rng.gen_range(0..20) + 8,
        1 => SIZE - rng.gen_range(0..20),
        2 => SIZE + rng.gen_range(0..4),
        _ => rng.gen_range(0..SIZE),
    }
}

fn width(rng: &mut StdRng) -> Width {
    [Width::B, Width::W, Width::D, Width::Q][rng.gen_range(0..4)]
}

fn op(rng: &mut StdRng) -> Op {
    let a = addr(rng);
    let op = match rng.gen_range(0..6) {
        0 => Op::Load(a, width(rng)),
        1 => Op::Store(a, width(rng), rng.gen()),
        2 => Op::Load128(a),
        3 => Op::Store128(
            a,
            u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>()),
        ),
        4 => Op::Read(
            a.saturating_sub(rng.gen_range(0..3 * PAGE)),
            rng.gen_range(0..3 * PAGE as usize),
        ),
        _ => {
            let mut bytes = vec![0u8; rng.gen_range(0..3 * PAGE as usize)];
            rng.fill(&mut bytes[..]);
            Op::Write(a.saturating_sub(bytes.len() as u64), bytes)
        }
    };
    // Stores that would land in the hole turn into loads of the same span.
    let span = |a: u64, n: u64| a < HOLE.end && a + n > HOLE.start;
    match op {
        Op::Store(a, w, _) if span(a, w.bytes()) => Op::Load(a, w),
        Op::Store128(a, _) if span(a, 16) => Op::Load128(a),
        Op::Write(a, bytes) if span(a, bytes.len() as u64) => Op::Read(a, bytes.len()),
        op => op,
    }
}

#[test]
fn flat_memory_matches_a_plain_vector() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xF1A7 ^ seed);
        let (mut paged, mut plain) = (
            FlatMemory::new(SIZE as usize),
            Plain(vec![0; SIZE as usize]),
        );
        let (mut faults, mut straddles) = (0, 0);
        for k in 0..OPS {
            let op = op(&mut rng);
            let (got, want) = (apply(&mut paged, &op), apply(&mut plain, &op));
            assert_eq!(got, want, "seed {seed}, op {k}: {op:?}");
            faults += usize::from(want.is_err());
            if let Op::Load(a, _) | Op::Store(a, _, _) | Op::Load128(a) | Op::Store128(a, _) = op {
                straddles += usize::from(a % PAGE > PAGE - 16);
            }
        }
        assert!(
            faults > OPS / 20,
            "seed {seed}: the script must fault ({faults})"
        );
        assert!(
            straddles > OPS / 100,
            "seed {seed}: the script must straddle ({straddles})"
        );
        let mut all = vec![0xEE; SIZE as usize];
        paged.read_unchecked(0, &mut all).expect("whole memory");
        assert!(all == plain.0, "seed {seed}: final contents diverged");
        assert!(all[HOLE.start as usize..HOLE.end as usize]
            .iter()
            .all(|&b| b == 0));
        assert!(
            all.iter().any(|&b| b != 0),
            "seed {seed}: the script must write"
        );
    }
}

#[test]
fn flat_memory_faults_where_the_vector_does() {
    let mut mem = FlatMemory::new(SIZE as usize);
    let fault = |addr| Some(MemFault::OutOfRange { addr });
    assert_eq!(
        mem.load(SIZE - 8, Width::Q, CTX),
        Ok(0),
        "ends exactly at the end"
    );
    assert_eq!(
        mem.load(SIZE - 7, Width::Q, CTX).err(),
        fault(SIZE - 7),
        "one byte past it"
    );
    assert_eq!(mem.store(SIZE, Width::B, 1, CTX).err(), fault(SIZE));
    // A 128-bit access is two 8-byte halves: the high half faults at +8.
    assert_eq!(mem.load128(SIZE - 12, CTX).err(), fault(SIZE - 4));
    assert_eq!(
        mem.read_unchecked(u64::MAX - 1, &mut [0; 4]).err(),
        fault(u64::MAX - 1)
    );
    assert_eq!(
        mem.write_unchecked(SIZE - 2, &[1, 2, 3]).err(),
        fault(SIZE - 2)
    );
    assert_eq!(
        mem.write_unchecked(SIZE, &[]),
        Ok(()),
        "an empty write at the end"
    );
}

#[test]
fn address_space_host_access_matches_byte_at_a_time() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xA5 ^ seed);
        // A 20-page window starting 8 bytes below a random page; stores
        // stay below its last four pages, which are only ever read.
        let lo = rng.gen_range(1..1 << 20) * PAGE - 8;
        let mut space = AddressSpace::new_48bit();
        // The byte-at-a-time model of the window: zero until written.
        let mut model = vec![0u8; 20 * PAGE as usize + 8];
        for k in 0..OPS / 3 {
            let off = rng.gen_range(0..20 * PAGE as usize);
            let len = rng.gen_range(0..(3 * PAGE as usize).min(model.len() - off));
            if rng.gen_bool(0.5) && off + len <= 16 * PAGE as usize {
                let mut bytes = vec![0u8; len];
                rng.fill(&mut bytes[..]);
                space.write_unchecked(lo + off as u64, &bytes);
                for (i, &b) in bytes.iter().enumerate() {
                    model[off + i] = b;
                }
            } else {
                let mut got = vec![0xEE; len];
                space.read_unchecked(lo + off as u64, &mut got);
                for (i, &b) in got.iter().enumerate() {
                    assert_eq!(
                        b,
                        model[off + i],
                        "seed {seed}, op {k}: byte {i} of {len} at +{off}"
                    );
                }
            }
        }
        let mut tail = vec![0xEE; 4 * PAGE as usize];
        space.read_unchecked(lo + 16 * PAGE, &mut tail);
        assert!(
            tail.iter().all(|&b| b == 0),
            "seed {seed}: never-written pages read as zero"
        );
    }
}
