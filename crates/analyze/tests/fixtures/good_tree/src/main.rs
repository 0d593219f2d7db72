// Annotated twin of bad_tree/src/main.rs: the knob literal names a
// registered knob.

fn main() {
    let _ = std::env::var("FT2_SEED");
}
