//! Vector-lane geometry constants.
//!
//! The block-delayed execution model turns pipelines into straight-line
//! sequential loops over blocks — exactly the shape SIMD wants. For a
//! SIMD consumer to pick *SIMD-friendly* block sizes it needs one
//! machine fact this module centralizes: **lane counts** — how many
//! elements of a given width one vector register holds, per vector
//! width ([`lanes`], [`lane_count`]).
//!
//! The constants here are static upper bounds (what the ISA offers);
//! *which* width actually runs is a runtime dispatch decision made in
//! `bds_seq::simd`, whose drivers pass [`lane_count`] to
//! [`geometry::align_to_lane`](crate::geometry::align_to_lane). Keeping
//! this crate free of `cfg`/runtime feature detection keeps the cost
//! model a pure function.

/// Vector register width of the widest x86-64 extension the SIMD fast
/// paths can dispatch to (AVX-512: 64 bytes).
pub const AVX512_VECTOR_BYTES: usize = 64;

/// Vector register width of the AVX2 dispatch tier (32 bytes).
pub const AVX2_VECTOR_BYTES: usize = 32;

/// Vector register width of the baseline SSE2 tier every x86-64 CPU
/// has (16 bytes) — also a reasonable stand-in for NEON on aarch64.
pub const SSE2_VECTOR_BYTES: usize = 16;

/// Lane count of a `elem_bytes`-wide element in a `vector_bytes`-wide
/// register, floored at 1 so scalar (or oversized) element types stay
/// well-defined.
pub const fn lanes(vector_bytes: usize, elem_bytes: usize) -> usize {
    if elem_bytes == 0 || vector_bytes < elem_bytes {
        1
    } else {
        vector_bytes / elem_bytes
    }
}

/// Lane count of `T` at the widest dispatchable vector width
/// ([`AVX512_VECTOR_BYTES`]). The *upper bound* a consumer should align
/// block sizes to when it does not yet know which tier will run —
/// aligning to the widest width also aligns every narrower one, since
/// the widths are successive powers of two.
pub const fn lane_count<T>() -> usize {
    lanes(AVX512_VECTOR_BYTES, std::mem::size_of::<T>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_math() {
        assert_eq!(lanes(32, 4), 8); // f32 × AVX2
        assert_eq!(lanes(64, 8), 8); // f64/u64 × AVX-512
        assert_eq!(lanes(64, 1), 64); // bytes × AVX-512
        assert_eq!(lanes(16, 32), 1); // oversized element
        assert_eq!(lanes(16, 0), 1); // degenerate
    }

    #[test]
    fn type_level_helpers() {
        assert_eq!(lane_count::<u8>(), 64);
        assert_eq!(lane_count::<u32>(), 16);
        assert_eq!(lane_count::<u64>(), 8);
        assert_eq!(lane_count::<f32>(), 16);
        assert_eq!(lane_count::<f64>(), 8);
        // A type wider than a vector still reports at least 1.
        assert_eq!(lane_count::<[u8; 256]>(), 1);
    }

    #[test]
    fn widths_are_nested_powers_of_two() {
        // Aligning to the widest width aligns every narrower tier.
        assert_eq!(AVX512_VECTOR_BYTES % AVX2_VECTOR_BYTES, 0);
        assert_eq!(AVX2_VECTOR_BYTES % SSE2_VECTOR_BYTES, 0);
    }
}
