//! Pins the compiler's output. Every genprog program under the six
//! differential strategies at both tiers, and every `genprog::gadget`
//! under the strategy × mitigation matrix of `speculative_check`, is
//! compiled and folded into one FNV-1a digest per family: the encoded
//! bytes, the instruction offsets and each instruction's `Provenance`.
//!
//! The differential gate shows that rewritten code computes what the Wasm
//! does; this pin shows that a host-speed change to the compiler (pass
//! state, encoder buffers) emits exactly the code it emitted before.
//! Re-recording a digest means the emitted code changed on purpose.

use segue_colorguard::core::{compile, CompiledModule, CompilerConfig, MitigationLevel, Strategy};
use segue_colorguard::wasm::Module;
use segue_colorguard::workloads::genprog;

/// The strategies `harness::differential_check` sweeps.
const STRATEGIES: [Strategy; 6] = [
    Strategy::Native,
    Strategy::GuardRegion,
    Strategy::Segue,
    Strategy::SegueLoads,
    Strategy::BoundsCheck,
    Strategy::BoundsCheckSegue,
];

const GENPROG_SEEDS: u64 = 400;
const GADGET_SEEDS: u64 = 32;

/// Recorded before the flat runner, encoder and opt-pass state were
/// rewritten for host speed; those rewrites must not move a byte.
const PINNED_GENPROG: (u64, u64) = (4800, 0xda1c_37db_06fc_efa9);
const PINNED_GADGET: (u64, u64) = (768, 0x0796_907a_acb1_1b8a);

/// Streaming FNV-1a (64-bit).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn fold(h: &mut Fnv, module: &Module, config: &CompilerConfig) {
    let cm: CompiledModule = compile(module, config).expect("compiles");
    let (program, enc) = (cm.image.program(), cm.image.encoded());
    h.u64(enc.bytes.len() as u64);
    h.bytes(&enc.bytes);
    h.u64(enc.offsets.len() as u64);
    for &o in &enc.offsets {
        h.bytes(&o.to_le_bytes());
    }
    h.u64(program.len() as u64);
    for i in 0..program.len() {
        h.bytes(&[program.prov_at(i) as u8]);
    }
}

/// `(images, digest)` over genprog seeds × 6 strategies × 2 tiers.
fn genprog_digest() -> (u64, u64) {
    let (mut h, mut images) = (Fnv::new(), 0);
    for seed in 0..GENPROG_SEEDS {
        let module = genprog::generate(seed).module();
        for strategy in STRATEGIES {
            let base = CompilerConfig::for_strategy(strategy);
            for config in [base.clone(), base.optimized()] {
                fold(&mut h, &module, &config);
                images += 1;
            }
        }
    }
    (images, h.0)
}

/// `(images, digest)` over gadget seeds × every sandboxing strategy × every
/// mitigation level.
fn gadget_digest() -> (u64, u64) {
    let (mut h, mut images) = (Fnv::new(), 0);
    for seed in 0..GADGET_SEEDS {
        let module = genprog::gadget(seed);
        for strategy in Strategy::ALL.into_iter().filter(|&s| s != Strategy::Native) {
            for level in MitigationLevel::ALL {
                fold(
                    &mut h,
                    &module,
                    &CompilerConfig::for_strategy(strategy).mitigated(level),
                );
                images += 1;
            }
        }
    }
    (images, h.0)
}

#[test]
fn genprog_images_match_the_pinned_digest() {
    let got = genprog_digest();
    assert_eq!(
        got, PINNED_GENPROG,
        "genprog images changed: got ({}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn gadget_images_match_the_pinned_digest() {
    let got = gadget_digest();
    assert_eq!(
        got, PINNED_GADGET,
        "gadget images changed: got ({}, {:#018x})",
        got.0, got.1
    );
}
