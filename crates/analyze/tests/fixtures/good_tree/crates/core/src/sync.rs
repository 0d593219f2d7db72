//! The annotated twin of `bad_tree`'s sync.rs: the same shapes, each made
//! clean either structurally (one lock at a time) or through the
//! documented annotation grammar.

pub struct Shared {
    pub a_lock: std::sync::Mutex<u32>,
    pub b_lock: std::sync::Mutex<u32>,
}

// One lock at a time: b_lock is released before a_lock is taken.
pub fn good_order(s: &Shared) -> u32 {
    let b = *lock_clean(&s.b_lock);
    let a = lock_clean(&s.a_lock);
    *a + b
}

// ft2: blocking-ok (the receiver is pre-filled before this is called, so
// the recv cannot park while the guard is held)
pub fn good_hold(s: &Shared, rx: &std::sync::mpsc::Receiver<u32>) -> u32 {
    let g = lock_clean(&s.a_lock);
    let v = rx.recv().unwrap_or(0);
    *g + v
}

fn lock_clean<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
