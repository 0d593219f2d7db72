//! Seeded lock violations: exactly one per lock lint class (lock-order,
//! hold-across-blocking). The golden test asserts the exact counts.

pub struct Shared {
    pub a_lock: std::sync::Mutex<u32>,
    pub b_lock: std::sync::Mutex<u32>,
}

// lock-order: a_lock taken while b_lock is held.
pub fn bad_order(s: &Shared) -> u32 {
    let b = lock_clean(&s.b_lock);
    let a = lock_clean(&s.a_lock);
    *a + *b
}

// hold-across-blocking: guard live across a channel recv.
pub fn bad_hold(s: &Shared, rx: &std::sync::mpsc::Receiver<u32>) -> u32 {
    let g = lock_clean(&s.a_lock);
    let v = rx.recv().unwrap_or(0);
    *g + v
}

fn lock_clean<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
