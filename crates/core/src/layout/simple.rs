//! The simple linear layout — Fig. 11's baseline.
//!
//! Data of both classes is spread uniformly over the whole device, the
//! behaviour of a file system that ignores device geometry.

use std::ops::Range;

use super::Layout;

/// Uniform whole-device placement for both data classes.
///
/// # Examples
///
/// ```
/// use mems_os::layout::{Layout, SimpleLayout};
///
/// let l = SimpleLayout::new(1000);
/// assert_eq!(l.small_ranges(), &[0..1000]);
/// assert_eq!(l.small_ranges(), l.large_ranges());
/// ```
#[derive(Debug, Clone)]
pub struct SimpleLayout {
    whole: [Range<u64>; 1],
}

impl SimpleLayout {
    /// Creates the baseline layout for a device of `capacity` sectors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "device must have capacity");
        SimpleLayout {
            whole: [0..capacity],
        }
    }
}

impl Layout for SimpleLayout {
    fn name(&self) -> &str {
        "simple"
    }

    fn small_ranges(&self) -> &[Range<u64>] {
        &self.whole
    }

    fn large_ranges(&self) -> &[Range<u64>] {
        &self.whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::tests::ranges_len;

    #[test]
    fn covers_whole_device() {
        let l = SimpleLayout::new(6_750_000);
        assert_eq!(ranges_len(l.small_ranges()), 6_750_000);
        assert_eq!(ranges_len(l.large_ranges()), 6_750_000);
        assert_eq!(l.name(), "simple");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = SimpleLayout::new(0);
    }
}
