//! Lane-boundary bit-exactness: the SIMD block kernels against the scalar
//! datapath at every alignment the block/tail split can produce.
//!
//! SIMD tail handling is where bit-exactness bugs hide, so every batched
//! entry point (`axpy`, `axpy_classified`, `axpy_rows`, `gemm_tile`, `mul`,
//! `dot`) is swept over slice lengths `0`, `1`, `LANES-1`, `LANES`,
//! `LANES+1`, and `4·LANES+3`, with NaN/Inf/denormal/zero values pinned at
//! block boundaries and inside the scalar tail, for **every**
//! [`MultiplierKind`]. References are built from scalar
//! [`Multiplier::multiply`] plus the pinned
//! [`da_arith::simd::nan_stable_add`] accumulate, the crate's documented
//! reduction semantics.
//!
//! The last test does the same for the bit-sliced gate-level sweep (HEAP
//! and an ablation wiring): tile widths around its 64-lane block, reduction
//! lengths around its eight-term fused run, and specials pinned at lanes
//! 63/64 and inside a fused run, through one reused kernel per multiplier.

use da_arith::fpm::FloatMultiplier;
use da_arith::simd::nan_stable_add;
use da_arith::{
    classify_row, ArrayMultiplierSpec, Multiplier, MultiplierKind, PortMap, PreparedOperand,
    PreparedOperands, LANES,
};
use rand::{Rng, SeedableRng};

/// The lane-boundary length sweep from the issue spec.
const LENGTHS: [usize; 6] = [0, 1, LANES - 1, LANES, LANES + 1, 4 * LANES + 3];

/// Values that exercise every datapath branch.
const SPECIALS: [f32; 8] =
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-40, f32::MAX, f32::MIN_POSITIVE];

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(97)
}

/// A row of the given length with `specials` pinned at block boundaries
/// (lane 0, last lane of the first block, first lane of the second block)
/// and in the scalar tail (last element), normals elsewhere.
fn boundary_row(len: usize, specials: &[f32], rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    let mut row: Vec<f32> = (0..len).map(|_| rng.gen_range(0.03f32..4.0) - 2.0).collect();
    // Re-roll near-zero normals so "clean" rows stay clean.
    for v in row.iter_mut() {
        if v.abs() < 1e-3 {
            *v = 0.7;
        }
    }
    if len == 0 || specials.is_empty() {
        return row;
    }
    let mut pin = |idx: usize, i: usize| {
        if idx < len {
            row[idx] = specials[i % specials.len()];
        }
    };
    pin(0, 0);
    pin(LANES - 1, 1);
    pin(LANES, 2);
    pin(len - 1, 3);
    row
}

fn assert_rows_equal(got: &[f32], want: &[f32], ctx: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx} elem {i}: {g:?} ({:#010x}) vs {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// `axpy`, `axpy_classified`, and `mul` against the scalar datapath at every
/// lane-boundary length, special placement, and shared-operand class.
#[test]
fn axpy_and_mul_are_bit_exact_at_lane_boundaries() {
    let mut rng = rng();
    let shared = [0.7f32, -1.25, 0.0, -0.0, f32::NAN, f32::INFINITY, 1e-40, f32::MAX];
    for kind in MultiplierKind::ALL {
        let m = kind.build();
        for len in LENGTHS {
            for pins in [&[] as &[f32], &[0.0, -0.0], &SPECIALS] {
                let b = boundary_row(len, pins, &mut rng);
                let class = classify_row(&b);
                for &a in &shared {
                    let ctx = format!("{kind} len={len} pins={} a={a}", pins.len());

                    let mut acc = vec![0.25f32; len];
                    m.batch_kernel().axpy(a, &b, &mut acc);
                    let want: Vec<f32> = b.iter().map(|&y| 0.25 + m.multiply(a, y)).collect();
                    assert_rows_equal(&acc, &want, &format!("{ctx} axpy"));

                    let mut acc = vec![0.25f32; len];
                    m.batch_kernel().axpy_classified(a, &b, class, &mut acc);
                    assert_rows_equal(&acc, &want, &format!("{ctx} axpy_classified"));

                    let mut out = vec![0.0f32; len];
                    let a_row: Vec<f32> = boundary_row(len, pins, &mut rng);
                    m.batch_kernel().mul(&a_row, &b, &mut out);
                    let want: Vec<f32> =
                        a_row.iter().zip(&b).map(|(&x, &y)| m.multiply(x, y)).collect();
                    assert_rows_equal(&out, &want, &format!("{ctx} mul"));
                }
            }
        }
    }
}

/// `dot` against the crate's pinned reduction semantics (scalar products
/// accumulated in order through `nan_stable_add`).
#[test]
fn dot_is_bit_exact_at_lane_boundaries() {
    let mut rng = rng();
    for kind in MultiplierKind::ALL {
        let m = kind.build();
        for len in LENGTHS {
            for pins in [&[] as &[f32], &SPECIALS] {
                let a = boundary_row(len, pins, &mut rng);
                let b = boundary_row(len, &[1.0], &mut rng);
                let got = m.batch_kernel().dot(&a, &b);
                let mut want = 0.0f32;
                for (&x, &y) in a.iter().zip(&b) {
                    want = nan_stable_add(want, m.multiply(x, y));
                }
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{kind} len={len} pins={} dot: {got:?} vs {want:?}",
                    pins.len()
                );
            }
        }
    }
}

/// `axpy_rows` (strided multi-row sweep) equals row-by-row `axpy` for every
/// kind, including ragged tails and special pins.
#[test]
fn axpy_rows_matches_rowwise_axpy() {
    let mut rng = rng();
    for kind in MultiplierKind::ALL {
        let m = kind.build();
        for len in LENGTHS {
            let b = boundary_row(len, &SPECIALS, &mut rng);
            let a_col: Vec<f32> = vec![0.7, f32::NAN, -0.0, 1.5e38];
            let stride = len + 3;
            let mut acc = vec![0.5f32; a_col.len() * stride];
            let mut want = acc.clone();
            m.batch_kernel().axpy_rows(&a_col, &b, &mut acc, stride);
            {
                let mut kern = m.batch_kernel();
                for (r, &av) in a_col.iter().enumerate() {
                    kern.axpy(av, &b, &mut want[r * stride..r * stride + len]);
                }
            }
            assert_rows_equal(&acc, &want, &format!("{kind} len={len} axpy_rows"));
        }
    }
}

/// `gemm_tile` equals rowwise `axpy_prepared` at lane-boundary tile widths
/// with specials pinned at tile boundaries (the engine's fused conv path).
#[test]
fn gemm_tile_is_bit_exact_at_lane_boundary_tiles() {
    let mut rng = rng();
    for kind in MultiplierKind::ALL {
        let m = kind.build();
        for tile in LENGTHS {
            if tile == 0 {
                continue;
            }
            let (rows, k) = (3usize, 3usize);
            let stride = tile + 2;
            let w: Vec<f32> = (0..rows * k)
                .map(|i| if i == 4 { f32::NAN } else { rng.gen_range(0.1f32..2.0) - 1.05 })
                .collect();
            let ops = PreparedOperands::from_matrix(&w, rows, k);
            let mut b = Vec::new();
            for _ in 0..k {
                b.extend(boundary_row(tile, &SPECIALS, &mut rng));
            }
            let mut acc = vec![0.125f32; rows * stride];
            let mut want = acc.clone();
            m.batch_kernel().gemm_tile(&ops, &b, tile, &mut acc, stride);
            {
                let mut kern = m.batch_kernel();
                for r in 0..rows {
                    let acc_row = &mut want[r * stride..r * stride + tile];
                    for kk in 0..k {
                        kern.axpy_prepared(
                            &PreparedOperand::new(w[r * k + kk]),
                            &b[kk * tile..(kk + 1) * tile],
                            acc_row,
                        );
                    }
                }
            }
            assert_rows_equal(&acc, &want, &format!("{kind} tile={tile} gemm_tile"));
        }
    }
}

/// An AMA5-cell array with a non-canonical port wiring: gate-level
/// simulation with no closed form (`FastPath::None`), so its kernel runs the
/// bit-sliced sweep.
fn ablation_multiplier() -> FloatMultiplier {
    let canonical = ArrayMultiplierSpec::ax_mantissa(24);
    let port_map = PortMap::ALL
        .iter()
        .copied()
        .find(|&pm| pm != canonical.port_map)
        .expect("more than one port wiring exists");
    FloatMultiplier::with_core("ablation", ArrayMultiplierSpec { port_map, ..canonical })
}

/// Tile widths around the bit-sliced sweep's 64-lane block.
const BLOCK_TILES: [usize; 5] = [1, 63, 64, 65, 129];

/// Reduction lengths around the eight-term fused run.
const FUSED_KS: [usize; 4] = [7, 8, 9, 17];

/// A `[k, tile]` patch block of normals with zero, denormal, Inf and NaN
/// pinned at lanes 63/64 (lane 0 when the tile is narrower) of rows 2 and 5,
/// both inside the first eight-term run.
fn block_patch(k: usize, tile: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    let mut b = boundary_row(k * tile, &[], rng);
    let lane = |l: usize| if l < tile { l } else { 0 };
    for (t, l, v) in [(2, 63, 0.0f32), (2, 64, 1e-40), (5, 63, f32::INFINITY), (5, 64, f32::NAN)] {
        if t < k {
            b[t * tile + lane(l)] = v;
        }
    }
    b
}

/// Three `[3, k]` weight rows: row 0 all normal (whole eight-term runs),
/// row 1 with a zero and a denormal breaking its first run, row 2 with Inf
/// and NaN terms.
fn block_weights(k: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    let mut w = boundary_row(3 * k, &[], rng);
    w[k + 3] = -0.0;
    w[k + 5] = f32::from_bits(3);
    w[2 * k + 1] = f32::NEG_INFINITY;
    w[2 * k + k - 1] = f32::NAN;
    w
}

/// Every gate-level entry point against scalar `multiply` plus
/// `nan_stable_add`, at the bit-sliced block and fused-run boundaries.
#[test]
fn gate_level_kernels_are_bit_exact_at_bitslice_block_boundaries() {
    let mut rng = rng();
    let heap = MultiplierKind::Heap.build();
    let ablation = ablation_multiplier();
    for m in [&*heap, &ablation as &dyn Multiplier] {
        // One kernel per multiplier, reused by every call below.
        let mut kern = m.batch_kernel();
        for tile in BLOCK_TILES {
            for k in FUSED_KS {
                let rows = 3;
                let ctx = format!("{} tile={tile} k={k}", m.name());
                let b = block_patch(k, tile, &mut rng);
                let w = block_weights(k, &mut rng);
                let brow = |t: usize| &b[t * tile..(t + 1) * tile];

                // out[r·stride + j] = 0.125 ⊕ Σ_t multiply(w[r, t], b[t, j]).
                let stride = tile + 3;
                let mut want = vec![0.125f32; rows * stride];
                for r in 0..rows {
                    for j in 0..tile {
                        let o = &mut want[r * stride + j];
                        for t in 0..k {
                            *o = nan_stable_add(*o, m.multiply(w[r * k + t], b[t * tile + j]));
                        }
                    }
                }

                let ops = PreparedOperands::from_matrix(&w, rows, k);
                let mut acc = vec![0.125f32; rows * stride];
                kern.gemm_tile(&ops, &b, tile, &mut acc, stride);
                assert_rows_equal(&acc, &want, &format!("{ctx} gemm_tile"));

                let mut acc = vec![0.125f32; rows * stride];
                kern.gemm_tile_classed(&ops, &b, tile, classify_row(&b), &mut acc, stride);
                assert_rows_equal(&acc, &want, &format!("{ctx} gemm_tile_classed"));

                let mut acc = vec![0.125f32; rows * stride];
                for r in 0..rows {
                    for t in 0..k {
                        let acc_row = &mut acc[r * stride..r * stride + tile];
                        kern.axpy_classified(w[r * k + t], brow(t), classify_row(brow(t)), acc_row);
                    }
                }
                assert_rows_equal(&acc, &want, &format!("{ctx} axpy_classified"));

                let mut acc = vec![0.125f32; rows * stride];
                for t in 0..k {
                    let column: Vec<f32> = (0..rows).map(|r| w[r * k + t]).collect();
                    kern.axpy_rows(&column, brow(t), &mut acc, stride);
                }
                assert_rows_equal(&acc, &want, &format!("{ctx} axpy_rows"));

                // Row pairs of the patch block: `tile`-long operands whose
                // pins sit at lanes 63/64.
                for t in 0..k {
                    let (x, y) = (brow(t), brow(k - 1 - t));
                    let mut want_dot = 0.0f32;
                    for (&xv, &yv) in x.iter().zip(y) {
                        want_dot = nan_stable_add(want_dot, m.multiply(xv, yv));
                    }
                    let got = kern.dot(x, y);
                    assert_eq!(got.to_bits(), want_dot.to_bits(), "{ctx} dot t={t}");

                    let mut out = vec![0.0f32; tile];
                    kern.mul(x, y, &mut out);
                    let want_mul: Vec<f32> =
                        x.iter().zip(y).map(|(&xv, &yv)| m.multiply(xv, yv)).collect();
                    assert_rows_equal(&out, &want_mul, &format!("{ctx} mul t={t}"));
                }
            }
        }
    }
}
