//! Systematic Reed–Solomon erasure coding across probe tips.
//!
//! This is the paper's *horizontal* ECC (§6.1.2): each logical sector is
//! striped across `k` data tip sectors, and `m` additional ECC tips are
//! switched on during the access. Any `m` missing tip sectors — from media
//! defects, broken tips, or per-tip read errors converted to erasures by
//! the vertical code — are recoverable.
//!
//! The code is a systematic RS over GF(2⁸): a Vandermonde matrix reduced
//! so its top `k` rows are the identity; parity rows retain the MDS
//! property that *any* `k` rows of the generator are invertible.

use super::gf256::Gf256;

/// A systematic `(k + m, k)` Reed–Solomon erasure code.
///
/// # Examples
///
/// ```
/// use mems_os::fault::ReedSolomon;
///
/// // The paper's geometry: 64 data tips + 8 ECC tips per logical sector.
/// let rs = ReedSolomon::new(64, 8);
/// let data: Vec<u8> = (0..64).collect();
/// let mut shards: Vec<Option<u8>> = rs.encode(&data).into_iter().map(Some).collect();
/// // Lose any 8 shards...
/// for i in [0, 5, 13, 21, 34, 55, 64, 71] { shards[i] = None; }
/// // ...and recover the data exactly.
/// assert_eq!(rs.decode(&shards).unwrap(), data);
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    gf: Gf256,
    k: usize,
    m: usize,
    /// `(k + m) × k` generator matrix, systematic (top k rows = identity).
    gen: Vec<Vec<u8>>,
}

impl ReedSolomon {
    /// Builds a code with `k` data shards and `m` parity shards.
    ///
    /// # Panics
    ///
    /// Panics unless `k ≥ 1`, `m ≥ 1`, and `k + m ≤ 255`.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1 && m >= 1, "need at least one data and parity shard");
        assert!(k + m <= 255, "GF(256) supports at most 255 shards");
        let gf = Gf256::new();
        // Vandermonde rows v_i = [1, a_i, a_i², ...] with distinct a_i,
        // then column-reduce so the top k rows become the identity. Column
        // operations preserve the any-k-rows-invertible property.
        let n = k + m;
        let mut mat: Vec<Vec<u8>> = (0..n)
            .map(|r| (0..k).map(|c| gf.pow(2, (r as u32) * (c as u32))).collect())
            .collect();
        // Gauss-Jordan on the top k rows using column operations.
        for col in 0..k {
            // Find a pivot column with nonzero entry in row `col`.
            if mat[col][col] == 0 {
                let swap = (col + 1..k)
                    .find(|&c| mat[col][c] != 0)
                    .expect("Vandermonde top rows are invertible");
                for row in mat.iter_mut() {
                    row.swap(col, swap);
                }
            }
            let inv = gf.inv(mat[col][col]);
            for row in mat.iter_mut() {
                row[col] = gf.mul(row[col], inv);
            }
            for other in 0..k {
                if other == col || mat[col][other] == 0 {
                    continue;
                }
                let factor = mat[col][other];
                for row in mat.iter_mut() {
                    let sub = gf.mul(row[col], factor);
                    row[other] = gf.add(row[other], sub);
                }
            }
        }
        ReedSolomon { gf, k, m, gen: mat }
    }

    /// Parity shards per codeword.
    pub fn parity_shards(&self) -> usize {
        self.m
    }

    /// Total shards per codeword.
    pub fn total_shards(&self) -> usize {
        self.k + self.m
    }

    /// Encodes `k` data bytes into `k + m` shards (data first, then
    /// parity).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.k, "expected {} data bytes", self.k);
        (0..self.total_shards())
            .map(|r| {
                let mut acc = 0u8;
                for (c, &d) in data.iter().enumerate() {
                    acc = self.gf.add(acc, self.gf.mul(self.gen[r][c], d));
                }
                acc
            })
            .collect()
    }

    /// Recovers the `k` data bytes from shards with erasures (`None`).
    ///
    /// Returns `None` if fewer than `k` shards survive.
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != k + m`.
    pub fn decode(&self, shards: &[Option<u8>]) -> Option<Vec<u8>> {
        assert_eq!(
            shards.len(),
            self.total_shards(),
            "expected {} shards",
            self.total_shards()
        );
        // Fast path: all data shards intact.
        if shards[..self.k].iter().all(Option::is_some) {
            return Some(
                shards[..self.k]
                    .iter()
                    .map(|s| s.expect("checked"))
                    .collect(),
            );
        }
        let surviving: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|_| i))
            .collect();
        if surviving.len() < self.k {
            return None;
        }
        // Build the k×k system from the first k surviving rows and invert.
        let rows = &surviving[..self.k];
        let mut a: Vec<Vec<u8>> = rows.iter().map(|&r| self.gen[r].clone()).collect();
        let mut b: Vec<u8> = rows
            .iter()
            .map(|&r| shards[r].expect("surviving shard"))
            .collect();
        // Gaussian elimination with partial pivoting (any nonzero pivot);
        // matrix index loops are the clearest notation here.
        #[allow(clippy::needless_range_loop)]
        for col in 0..self.k {
            let pivot = (col..self.k).find(|&r| a[r][col] != 0)?;
            a.swap(col, pivot);
            b.swap(col, pivot);
            let inv = self.gf.inv(a[col][col]);
            for c in col..self.k {
                a[col][c] = self.gf.mul(a[col][c], inv);
            }
            b[col] = self.gf.mul(b[col], inv);
            for r in 0..self.k {
                if r == col || a[r][col] == 0 {
                    continue;
                }
                let factor = a[r][col];
                for c in col..self.k {
                    let sub = self.gf.mul(a[col][c], factor);
                    a[r][c] = self.gf.add(a[r][c], sub);
                }
                let sub = self.gf.mul(b[col], factor);
                b[r] = self.gf.add(b[r], sub);
            }
        }
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(8, 4);
        let data: Vec<u8> = (10..18).collect();
        let shards = rs.encode(&data);
        assert_eq!(&shards[..8], data.as_slice());
        assert_eq!(shards.len(), 12);
    }

    #[test]
    fn decode_with_no_erasures_is_identity() {
        let rs = ReedSolomon::new(8, 4);
        let data: Vec<u8> = (0..8).map(|i| i * 31).collect();
        let shards: Vec<Option<u8>> = rs.encode(&data).into_iter().map(Some).collect();
        assert_eq!(rs.decode(&shards).unwrap(), data);
    }

    #[test]
    fn recovers_from_max_erasures_anywhere() {
        let rs = ReedSolomon::new(8, 4);
        let data: Vec<u8> = vec![7, 0, 255, 13, 42, 42, 1, 128];
        let encoded = rs.encode(&data);
        // Erase every combination of 4 shards out of 12 (495 cases).
        let n = 12;
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    for d in (c + 1)..n {
                        let mut shards: Vec<Option<u8>> =
                            encoded.iter().copied().map(Some).collect();
                        for &i in &[a, b, c, d] {
                            shards[i] = None;
                        }
                        assert_eq!(
                            rs.decode(&shards).as_deref(),
                            Some(data.as_slice()),
                            "erasures {a},{b},{c},{d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn too_many_erasures_fail_cleanly() {
        let rs = ReedSolomon::new(8, 4);
        let encoded = rs.encode(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut shards: Vec<Option<u8>> = encoded.into_iter().map(Some).collect();
        for shard in shards.iter_mut().take(5) {
            *shard = None;
        }
        assert_eq!(rs.decode(&shards), None);
    }

    #[test]
    fn paper_geometry_64_plus_8() {
        let rs = ReedSolomon::new(64, 8);
        let data: Vec<u8> = (0..64).map(|i| (i * 7 + 3) as u8).collect();
        let encoded = rs.encode(&data);
        let mut shards: Vec<Option<u8>> = encoded.into_iter().map(Some).collect();
        // Kill 8 scattered tips, including parity tips.
        for i in [2usize, 9, 17, 33, 48, 63, 66, 70] {
            shards[i] = None;
        }
        assert_eq!(rs.decode(&shards).unwrap(), data);
    }

    #[test]
    fn parity_rows_are_nontrivial() {
        let rs = ReedSolomon::new(4, 2);
        let z = rs.encode(&[0, 0, 0, 0]);
        assert!(z.iter().all(|&s| s == 0));
        let e = rs.encode(&[1, 0, 0, 0]);
        assert!(e[4] != 0 && e[5] != 0, "parity must touch every data shard");
    }

    #[test]
    #[should_panic(expected = "data and parity")]
    fn zero_parity_rejected() {
        let _ = ReedSolomon::new(8, 0);
    }
}
