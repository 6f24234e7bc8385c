//! Word-parallel kernels for the batched lock-step engine.
//!
//! The batch engine ([`crate::batch`]) holds state as structure-of-arrays
//! stripes (`reg * lanes + lane`). Everything an instruction does to a
//! stripe is data-parallel across lanes, so the kernels here process lanes
//! in fixed-width chunks the optimizer turns into vector code:
//!
//! * **wide data** (`u64` per lane) runs through `[u64; 4]`-shaped chunk
//!   loops over exact slices — no bounds checks inside the loop, no
//!   per-lane branches, so LLVM autovectorizes every kernel;
//! * **narrow bookkeeping** (the 4-bit read-write sets, one `u8` per lane)
//!   is *bit-sliced*: eight lanes share one `u64` word, and conflict gates
//!   are evaluated with SWAR arithmetic — a 64-lane batch answers a
//!   "which lanes pass this check?" query in eight word operations;
//! * **per-lane control divergence** is merged branchlessly: selects and
//!   commit/rollback/end-of-cycle merges expand a condition into an
//!   all-ones/all-zeros lane mask and blend with AND/OR, so the all-agree
//!   fast path never branches per lane.
//!
//! Every kernel is semantically identical to the scalar loop it replaces;
//! the boundary suite (`tests/boundary.rs`) pins the shift/mask edges
//! (widths 1/63/64, shift counts at and past the operand width) across
//! lane counts 1/7/32/64 so non-multiple-of-chunk tails are exercised.

use crate::insn::FusedBin;

/// Lane chunk width for wide (`u64`) kernels: one 256-bit vector register.
pub const CHUNK: usize = 4;

/// Lanes per word for bit-sliced (`u8` read-write-set) kernels.
pub const BYTE_LANES: usize = 8;

const LO_BYTES: u64 = 0x0101_0101_0101_0101;

/// All-ones when `c` is true, all-zeros otherwise — the branchless lane
/// mask every merge kernel blends with.
#[inline(always)]
pub fn lane_mask(c: bool) -> u64 {
    0u64.wrapping_sub(c as u64)
}

/// Branchless `if b >= 64 { 0 } else { (a << b) & mask }`.
#[inline(always)]
pub fn shl64(a: u64, b: u64, mask: u64) -> u64 {
    (a << (b & 63)) & mask & lane_mask(b < 64)
}

/// Branchless `if b >= 64 { 0 } else { a >> b }`.
#[inline(always)]
pub fn shr64(a: u64, b: u64) -> u64 {
    (a >> (b & 63)) & lane_mask(b < 64)
}

/// Binary map into a separate stripe: `dst[l] = f(a[l], b[l])`.
#[inline(always)]
pub fn zip2_to(dst: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64 + Copy) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    let mut d = dst.chunks_exact_mut(CHUNK);
    let mut ac = a.chunks_exact(CHUNK);
    let mut bc = b.chunks_exact(CHUNK);
    for ((dc, av), bv) in (&mut d).zip(&mut ac).zip(&mut bc) {
        for i in 0..CHUNK {
            dc[i] = f(av[i], bv[i]);
        }
    }
    for ((x, &y), &z) in d
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *x = f(y, z);
    }
}

/// Number of zero lanes in a stripe (branchless, chunked).
#[inline(always)]
pub fn count_zero(v: &[u64]) -> usize {
    let mut n = 0usize;
    let mut chunks = v.chunks_exact(CHUNK);
    for c in &mut chunks {
        for &x in c {
            n += (x == 0) as usize;
        }
    }
    for &x in chunks.remainder() {
        n += (x == 0) as usize;
    }
    n
}

/// Number of lanes whose read-write-set byte has none of `bits` set —
/// the all-lanes conflict gate, bit-sliced eight lanes per word.
///
/// Read-write-set bytes only use the low four bits (`R0..W1`), so the
/// per-byte "any of `bits` set?" answer folds into bit 0 with three
/// shifts, and a multiply-accumulate sums the eight indicator bytes.
#[inline(always)]
pub fn count_clear(rw: &[u8], bits: u8) -> usize {
    debug_assert!(bits & 0xF0 == 0, "rw sets use only the low nibble");
    let sel = LO_BYTES * u64::from(bits);
    let mut busy = 0usize;
    let mut words = rw.chunks_exact(BYTE_LANES);
    for w in &mut words {
        let x = u64::from_ne_bytes(w.try_into().expect("chunk is 8 bytes")) & sel;
        let ones = (x | (x >> 1) | (x >> 2) | (x >> 3)) & LO_BYTES;
        busy += (ones.wrapping_mul(LO_BYTES) >> 56) as usize;
    }
    for &b in words.remainder() {
        busy += (b & bits != 0) as usize;
    }
    rw.len() - busy
}

/// [`count_clear`] over the union of two read-write sets (`(a | b) & bits`),
/// for write gates at levels that consult both the rule and cycle logs.
#[inline(always)]
pub fn count_clear2(a: &[u8], b: &[u8], bits: u8) -> usize {
    debug_assert!(bits & 0xF0 == 0, "rw sets use only the low nibble");
    assert_eq!(a.len(), b.len());
    let sel = LO_BYTES * u64::from(bits);
    let mut busy = 0usize;
    let mut aw = a.chunks_exact(BYTE_LANES);
    let mut bw = b.chunks_exact(BYTE_LANES);
    for (av, bv) in (&mut aw).zip(&mut bw) {
        let x = (u64::from_ne_bytes(av.try_into().expect("chunk is 8 bytes"))
            | u64::from_ne_bytes(bv.try_into().expect("chunk is 8 bytes")))
            & sel;
        let ones = (x | (x >> 1) | (x >> 2) | (x >> 3)) & LO_BYTES;
        busy += (ones.wrapping_mul(LO_BYTES) >> 56) as usize;
    }
    for (&x, &y) in aw.remainder().iter().zip(bw.remainder()) {
        busy += ((x | y) & bits != 0) as usize;
    }
    a.len() - busy
}

/// ORs `bit` into every lane's read-write-set byte.
#[inline(always)]
pub fn or_bytes(rw: &mut [u8], bit: u8) {
    for b in rw {
        *b |= bit;
    }
}

/// In-place unary map over an indexed stripe of one buffer:
/// `buf[d+l] = f(buf[s+l])`. The source and destination stripes may be
/// the same stripe (they are lane-aligned, so overlap is all-or-none);
/// the up-front bounds assertions let the optimizer drop per-element
/// checks and emit a runtime-disambiguated vector loop.
#[inline(always)]
pub fn map1_at(buf: &mut [u64], d: usize, s: usize, n: usize, f: impl Fn(u64) -> u64 + Copy) {
    assert!(d + n <= buf.len() && s + n <= buf.len());
    for l in 0..n {
        buf[d + l] = f(buf[s + l]);
    }
}

/// Indexed binary map within one buffer: `buf[d+l] = f(buf[a+l], buf[b+l])`.
/// Any of the three stripes may coincide (lane-aligned, all-or-none).
#[inline(always)]
pub fn zip2_at(
    buf: &mut [u64],
    d: usize,
    a: usize,
    b: usize,
    n: usize,
    f: impl Fn(u64, u64) -> u64 + Copy,
) {
    assert!(d + n <= buf.len() && a + n <= buf.len() && b + n <= buf.len());
    for l in 0..n {
        buf[d + l] = f(buf[a + l], buf[b + l]);
    }
}

/// Indexed branchless select within one buffer:
/// `buf[d+l] = if buf[c+l] != 0 { buf[t+l] } else { buf[f+l] }`.
#[inline(always)]
pub fn select_at(buf: &mut [u64], d: usize, c: usize, t: usize, f: usize, n: usize) {
    assert!(d + n <= buf.len() && c + n <= buf.len() && t + n <= buf.len() && f + n <= buf.len());
    for l in 0..n {
        let m = lane_mask(buf[c + l] != 0);
        buf[d + l] = (buf[t + l] & m) | (buf[f + l] & !m);
    }
}

/// Expands `$body` once per [`FusedBin`] operator with `$f` bound to a
/// monomorphic branchless closure implementing that operator at `mask` —
/// the operator match (and every width-dependent setup: shift guards,
/// sign-extension amounts, concat overflow) is performed once per stripe
/// instead of once per lane.
macro_rules! with_fused {
    ($op:expr, $mask:expr, |$f:ident| $body:expr) => {{
        let mask = $mask;
        match $op {
            FusedBin::Add => {
                let $f = move |a: u64, b: u64| a.wrapping_add(b) & mask;
                $body
            }
            FusedBin::Sub => {
                let $f = move |a: u64, b: u64| a.wrapping_sub(b) & mask;
                $body
            }
            FusedBin::Mul => {
                let $f = move |a: u64, b: u64| a.wrapping_mul(b) & mask;
                $body
            }
            FusedBin::And => {
                let $f = move |a: u64, b: u64| a & b;
                $body
            }
            FusedBin::Or => {
                let $f = move |a: u64, b: u64| a | b;
                $body
            }
            FusedBin::Xor => {
                let $f = move |a: u64, b: u64| a ^ b;
                $body
            }
            FusedBin::Shl => {
                let $f = move |a: u64, b: u64| shl64(a, b, mask);
                $body
            }
            FusedBin::Shr => {
                let $f = move |a: u64, b: u64| shr64(a, b);
                $body
            }
            FusedBin::Sra => {
                let width = mask.count_ones();
                if width == 0 {
                    let $f = move |_a: u64, _b: u64| 0u64;
                    $body
                } else {
                    let inv = 64 - width;
                    let maxsh = u64::from(width - 1);
                    let $f = move |a: u64, b: u64| {
                        let s = b.min(maxsh) as u32;
                        (((((a << inv) as i64) >> inv) >> s) as u64) & mask
                    };
                    $body
                }
            }
            FusedBin::Eq => {
                let $f = move |a: u64, b: u64| (a == b) as u64;
                $body
            }
            FusedBin::Ne => {
                let $f = move |a: u64, b: u64| (a != b) as u64;
                $body
            }
            FusedBin::Ult => {
                let $f = move |a: u64, b: u64| (a < b) as u64;
                $body
            }
            FusedBin::Ule => {
                let $f = move |a: u64, b: u64| (a <= b) as u64;
                $body
            }
            FusedBin::Slt => {
                let width = mask.count_ones();
                if width == 0 {
                    let $f = move |_a: u64, _b: u64| 0u64;
                    $body
                } else {
                    let inv = 64 - width;
                    let $f =
                        move |a: u64, b: u64| (((a << inv) as i64) < ((b << inv) as i64)) as u64;
                    $body
                }
            }
            FusedBin::Sle => {
                let width = mask.count_ones();
                if width == 0 {
                    let $f = move |_a: u64, _b: u64| 1u64;
                    $body
                } else {
                    let inv = 64 - width;
                    let $f =
                        move |a: u64, b: u64| (((b << inv) as i64) >= ((a << inv) as i64)) as u64;
                    $body
                }
            }
            FusedBin::Concat { low } => {
                let low = u32::from(low);
                let hi_keep = lane_mask(low < 64);
                let sh = low.min(63);
                let $f = move |a: u64, b: u64| (((a << sh) & hi_keep) | b) & mask;
                $body
            }
        }
    }};
}

/// `dst[l] = fused(op, a[l], b[l], mask)`.
#[inline(always)]
pub fn fused_zip2_to(op: FusedBin, mask: u64, dst: &mut [u64], a: &[u64], b: &[u64]) {
    with_fused!(op, mask, |f| zip2_to(dst, a, b, f));
}

/// `buf[d+l] = fused(op, buf[a+l], buf[b+l], mask)` — the tac slot-file
/// form, tolerant of `d` aliasing `a` or `b`.
#[inline(always)]
pub fn fused_zip2_at(op: FusedBin, mask: u64, buf: &mut [u64], d: usize, a: usize, b: usize, n: usize) {
    with_fused!(op, mask, |f| zip2_at(buf, d, a, b, n, f));
}

/// `buf[d+l] = fused(op, ext[l], buf[b+l], mask)` — first operand from an
/// external stripe (a register read), second from the slot file.
#[inline(always)]
pub fn fused_ext_buf_at(op: FusedBin, mask: u64, buf: &mut [u64], d: usize, ext: &[u64], b: usize, n: usize) {
    assert!(d + n <= buf.len() && b + n <= buf.len() && n <= ext.len());
    with_fused!(op, mask, |f| for l in 0..n {
        buf[d + l] = f(ext[l], buf[b + l]);
    });
}

/// `buf[d+l] = fused(op, buf[a+l], ext[l], mask)` — second operand from an
/// external stripe.
#[inline(always)]
pub fn fused_buf_ext_at(op: FusedBin, mask: u64, buf: &mut [u64], d: usize, a: usize, ext: &[u64], n: usize) {
    assert!(d + n <= buf.len() && a + n <= buf.len() && n <= ext.len());
    with_fused!(op, mask, |f| for l in 0..n {
        buf[d + l] = f(buf[a + l], ext[l]);
    });
}

/// Number of lanes for which `fused(op, buf[a+l], buf[b+l], mask) == 0`,
/// without materializing the result stripe (the `BinJz` gate).
#[inline(always)]
pub fn fused_count_zero_at(op: FusedBin, mask: u64, buf: &[u64], a: usize, b: usize, n: usize) -> usize {
    assert!(a + n <= buf.len() && b + n <= buf.len());
    with_fused!(op, mask, |f| {
        let mut nz = 0usize;
        for l in 0..n {
            nz += (f(buf[a + l], buf[b + l]) == 0) as usize;
        }
        nz
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use koika::bits::word;

    #[test]
    fn shift_guards_match_scalar() {
        for b in [0u64, 1, 31, 62, 63, 64, 65, 1000, u64::MAX] {
            for a in [0u64, 1, 0xdead_beef, u64::MAX] {
                let mask = word::mask(17);
                let want_shl = if b >= 64 { 0 } else { (a << b) & mask };
                let want_shr = if b >= 64 { 0 } else { a >> b };
                assert_eq!(shl64(a, b, mask), want_shl, "shl a={a:#x} b={b}");
                assert_eq!(shr64(a, b), want_shr, "shr a={a:#x} b={b}");
            }
        }
    }

    #[test]
    fn gates_count_exactly_at_every_length() {
        // Sweep lengths through and past the 8-lane word boundary so both
        // the SWAR body and the scalar tail are exercised; compare against
        // the obvious per-lane loop.
        for len in 0..=67usize {
            let rw: Vec<u8> = (0..len).map(|i| (i % 16) as u8).collect();
            let rw2: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 16) as u8).collect();
            for bits in [0x01u8, 0x02, 0x04, 0x08, 0x0C, 0x0E, 0x0F] {
                let want = rw.iter().filter(|&&b| b & bits == 0).count();
                assert_eq!(count_clear(&rw, bits), want, "len={len} bits={bits:#x}");
                let want2 = rw
                    .iter()
                    .zip(&rw2)
                    .filter(|&(&a, &b)| (a | b) & bits == 0)
                    .count();
                assert_eq!(count_clear2(&rw, &rw2, bits), want2, "len={len} bits={bits:#x}");
            }
        }
    }

    #[test]
    fn fused_kernels_match_scalar_fused_at_boundary_widths() {
        use crate::insn::FusedBin;
        let ops = [
            FusedBin::Add,
            FusedBin::Sub,
            FusedBin::Mul,
            FusedBin::And,
            FusedBin::Or,
            FusedBin::Xor,
            FusedBin::Shl,
            FusedBin::Shr,
            FusedBin::Sra,
            FusedBin::Eq,
            FusedBin::Ne,
            FusedBin::Ult,
            FusedBin::Ule,
            FusedBin::Slt,
            FusedBin::Sle,
            FusedBin::Concat { low: 0 },
            FusedBin::Concat { low: 1 },
            FusedBin::Concat { low: 63 },
            FusedBin::Concat { low: 64 },
        ];
        let a: Vec<u64> = vec![0, 1, 2, 3, 62, 63, 64, 65, 0x8000, u64::MAX >> 1, u64::MAX];
        let b = {
            let mut v = a.clone();
            v.rotate_left(3);
            v
        };
        for width in [1u32, 2, 17, 63, 64] {
            let mask = word::mask(width);
            for &op in &ops {
                let want: Vec<u64> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| crate::vm::fused(op, x & mask, y, mask))
                    .collect();
                let am: Vec<u64> = a.iter().map(|&x| x & mask).collect();

                let mut dst = vec![0; am.len()];
                fused_zip2_to(op, mask, &mut dst, &am, &b);
                assert_eq!(dst, want, "zip2_to {op:?} w={width}");

                // Indexed forms over one buffer [a | b | out].
                let n = am.len();
                let mut buf = [am.clone(), b.clone(), vec![0; n]].concat();
                fused_zip2_at(op, mask, &mut buf, 2 * n, 0, n, n);
                assert_eq!(&buf[2 * n..], &want[..], "zip2_at {op:?} w={width}");
                fused_ext_buf_at(op, mask, &mut buf, 2 * n, &am, n, n);
                assert_eq!(&buf[2 * n..], &want[..], "ext_buf_at {op:?} w={width}");
                fused_buf_ext_at(op, mask, &mut buf, 2 * n, 0, &b, n);
                assert_eq!(&buf[2 * n..], &want[..], "buf_ext_at {op:?} w={width}");
                assert_eq!(
                    fused_count_zero_at(op, mask, &buf, 0, n, n),
                    want.iter().filter(|&&w| w == 0).count(),
                    "count_zero_at {op:?} w={width}"
                );
            }
        }
    }

    #[test]
    fn count_zero_counts_every_tail_shape() {
        for len in 0..=9usize {
            let v: Vec<u64> = (0..len).map(|i| (i % 2) as u64).collect();
            assert_eq!(count_zero(&v), v.iter().filter(|&&x| x == 0).count());
        }
    }
}
