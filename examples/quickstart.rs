//! Quickstart: protect one LLM inference with FT2.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a simulator model, runs a clean generation, then replays the same
//! generation with an injected exponent-bit flip in a critical layer —
//! first unprotected, then under FT2's online protection.

use ft2::core::{Scheme, SchemeFactory};
use ft2::fault::{FaultDuration, FaultInjector, FaultSite, FaultTarget, ProtectionFactory};
use ft2::model::{TapList, TapPoint, ZooModel};
use ft2::tasks::render_tokens;

fn main() {
    // 1. A model from the zoo (OPT-6.7B stand-in, FP16).
    let spec = ZooModel::Opt6_7B.spec();
    let model = spec.build();
    println!(
        "model: {} ({} sim parameters)",
        spec.name(),
        spec.config.sim_params()
    );

    // 2. A prompt and the fault-free reference generation.
    let prompt: Vec<u32> = vec![0, 118, 320, 25, 130, 4, 121, 330, 17, 2];
    let mut taps = TapList::new();
    let clean = model.generate(&prompt, 12, &mut taps);
    println!("\nprompt : {}", render_tokens(&prompt));
    println!("clean  : {}", render_tokens(&clean.tokens));

    // 3. The same generation with a fault: the highest exponent bit of one
    //    V_PROJ output element flips during decode step 3.
    let site = FaultSite {
        step: 3,
        point: TapPoint {
            block: 1,
            layer: ft2::model::LayerKind::VProj,
        },
        element: 17,
        bits: vec![14],
        duration: FaultDuration::Transient,
        target: FaultTarget::Activation,
    };
    let mut injector = FaultInjector::new(site.clone());
    let mut taps = TapList::new();
    taps.push(&mut injector);
    let faulty = model.generate(&prompt, 12, &mut taps);
    drop(taps);
    println!(
        "faulty : {}   (corrupted {} -> {})",
        render_tokens(&faulty.tokens),
        injector.original.unwrap(),
        injector.corrupted.unwrap()
    );

    // 4. Same fault, but with FT2 protecting the critical layers: bounds
    //    are profiled during the first token and the corrupted value is
    //    clamped back to the bound the moment it appears.
    let ft2 = SchemeFactory::new(Scheme::Ft2, model.config(), None);
    let mut injector = FaultInjector::new(site);
    let mut protection = ft2.make();
    let mut taps = TapList::new();
    taps.push(&mut injector);
    for p in protection.iter_mut() {
        taps.push(p.as_mut());
    }
    let protected = model.generate(&prompt, 12, &mut taps);
    drop(taps);
    println!("FT2    : {}", render_tokens(&protected.tokens));

    assert_eq!(clean.tokens, protected.tokens, "FT2 should mask this fault");
    println!("\nFT2 masked the fault: output identical to the clean run.");
}
