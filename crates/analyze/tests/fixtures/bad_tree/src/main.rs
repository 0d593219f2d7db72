// Seeded violation: a string literal naming an env knob that is not in
// the central registry.

fn main() {
    let _ = std::env::var("FT2_UNREGISTERED_KNOB");
}
