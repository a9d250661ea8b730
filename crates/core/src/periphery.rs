use std::sync::OnceLock;

use xbar_tensor::{linalg, Tensor};

use crate::MappingError;

/// A validated periphery matrix `S` (paper Sec. III-B/III-C).
///
/// `S` has shape `N_O × N_D`, entries restricted to `{−1, 0, +1}` (so it is
/// implementable as additions/subtractions of digitized column outputs),
/// and satisfies the paper's two sufficient conditions:
///
/// 1. `rank(S) = N_O` — any signed `W` lies in the column space of `S`;
/// 2. there exists `x_h > 0` with `S·x_h = 0` — any particular solution of
///    `S·m = w` can be shifted (`m + α·x_h`) into the non-negative orthant.
///
/// The three standard stencils are provided as constructors
/// ([`PeripheryMatrix::acm`], [`PeripheryMatrix::bias_column`],
/// [`PeripheryMatrix::double_element`]); arbitrary user matrices can be
/// validated through [`PeripheryMatrix::try_new`].
///
/// Alongside the dense matrix it keeps `S`'s ±1 *stencil*: its non-zero
/// `(row, column, ±1)` terms in row-major order, stored flat in one list
/// and derived from the matrix on first use — so every constructor's
/// stencil is its own matrix's, and a matrix that is only validated and
/// read densely (a remap's group stencil) never allocates one. The
/// combine, its adjoint and the `S·M` / `Sᵀ·G` products walk the stencil
/// — the few additions and subtractions of digitized column outputs the
/// hardware periphery performs — instead of a dense `N_O × N_D` GEMM.
/// Each output is a `+0.0`-initialised sum over its terms in that order,
/// which for the standard stencils (at most two terms per row) is bitwise
/// the dense product.
///
/// # Example
///
/// ```
/// use xbar_core::PeripheryMatrix;
///
/// let s = PeripheryMatrix::acm(3);
/// assert_eq!(s.n_out(), 3);
/// assert_eq!(s.n_dev(), 4);
/// // Row i subtracts column i+1 from column i:
/// assert_eq!(s.matrix().at(&[0, 0]), 1.0);
/// assert_eq!(s.matrix().at(&[0, 1]), -1.0);
/// ```
#[derive(Debug, Clone)]
pub struct PeripheryMatrix {
    s: Tensor,
    null_vector: Vec<f32>,
    /// `(row, column, entry)` of every non-zero of `s`, row-major; the
    /// entry is `±1.0`. Built on the first walk.
    stencil: OnceLock<Vec<(usize, usize, f32)>>,
}

/// Equality is the matrix's: the stencil is a function of it.
impl PartialEq for PeripheryMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.s == other.s && self.null_vector == other.null_vector
    }
}

/// Tolerance used for rank and null-space computations. Periphery entries
/// are exactly representable integers so this only guards float roundoff.
const TOL: f32 = 1e-5;

impl PeripheryMatrix {
    fn from_parts(s: Tensor, null_vector: Vec<f32>) -> Self {
        Self {
            s,
            null_vector,
            stencil: OnceLock::new(),
        }
    }

    /// The stencil, derived from the matrix on the first call.
    fn stencil(&self) -> &[(usize, usize, f32)] {
        self.stencil.get_or_init(|| {
            let nd = self.n_dev();
            let data = self.s.data();
            let mut terms = Vec::with_capacity(data.iter().filter(|&&v| v != 0.0).count());
            for (i, &v) in data.iter().enumerate() {
                if v != 0.0 {
                    terms.push((i / nd, i % nd, v));
                }
            }
            terms
        })
    }

    /// The adjacent connection matrix of the paper (Fig. 2): row `j` is
    /// `+1` at column `j` and `−1` at column `j + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n_out == 0`.
    pub fn acm(n_out: usize) -> Self {
        assert!(n_out > 0, "periphery needs at least one output");
        let nd = n_out + 1;
        let mut s = Tensor::zeros(&[n_out, nd]);
        for j in 0..n_out {
            *s.at_mut(&[j, j]) = 1.0;
            *s.at_mut(&[j, j + 1]) = -1.0;
        }
        Self::from_parts(s, vec![1.0; nd])
    }

    /// The bias-column mapping (Fig. 1b): row `j` is `+1` at column `j` and
    /// `−1` at the shared reference column `N_O`.
    ///
    /// # Panics
    ///
    /// Panics if `n_out == 0`.
    pub fn bias_column(n_out: usize) -> Self {
        assert!(n_out > 0, "periphery needs at least one output");
        let nd = n_out + 1;
        let mut s = Tensor::zeros(&[n_out, nd]);
        for j in 0..n_out {
            *s.at_mut(&[j, j]) = 1.0;
            *s.at_mut(&[j, nd - 1]) = -1.0;
        }
        Self::from_parts(s, vec![1.0; nd])
    }

    /// The double-element mapping (Fig. 1a): row `j` is `+1` at column `2j`
    /// and `−1` at column `2j + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n_out == 0`.
    pub fn double_element(n_out: usize) -> Self {
        assert!(n_out > 0, "periphery needs at least one output");
        let nd = 2 * n_out;
        let mut s = Tensor::zeros(&[n_out, nd]);
        for j in 0..n_out {
            *s.at_mut(&[j, 2 * j]) = 1.0;
            *s.at_mut(&[j, 2 * j + 1]) = -1.0;
        }
        Self::from_parts(s, vec![1.0; nd])
    }

    /// Builds the block-diagonal composition of `blocks` — the periphery
    /// of a *tiled* layer, where each physical column-group of crossbar
    /// tiles carries its own local stencil (and, for BC/ACM, its own
    /// reference column).
    ///
    /// The composition inherits validity from its blocks without
    /// re-running the expensive rank check: the rank of a block-diagonal
    /// matrix is the sum of the block ranks, and the concatenation of the
    /// blocks' strictly positive null vectors is a strictly positive null
    /// vector of the whole.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    pub fn block_diagonal(blocks: &[PeripheryMatrix]) -> Self {
        assert!(!blocks.is_empty(), "block-diagonal periphery needs blocks");
        if blocks.len() == 1 {
            return blocks[0].clone();
        }
        let n_out: usize = blocks.iter().map(PeripheryMatrix::n_out).sum();
        let nd: usize = blocks.iter().map(PeripheryMatrix::n_dev).sum();
        let mut s = Tensor::zeros(&[n_out, nd]);
        let mut null_vector = Vec::with_capacity(nd);
        let (mut r0, mut c0) = (0, 0);
        for b in blocks {
            for i in 0..b.n_out() {
                for j in 0..b.n_dev() {
                    *s.at_mut(&[r0 + i, c0 + j]) = b.matrix().at(&[i, j]);
                }
            }
            null_vector.extend_from_slice(b.null_vector());
            r0 += b.n_out();
            c0 += b.n_dev();
        }
        Self::from_parts(s, null_vector)
    }

    /// Folds a device-column permutation into this stencil: returns
    /// `S_p = S · Pᵀ`, the periphery of an array whose physical device
    /// column `p` stores logical device column `perm[p]`.
    ///
    /// Validity is inherited by construction (no rank recheck needed):
    /// permuting columns of a ternary matrix keeps it ternary, preserves
    /// row rank, and permutes the strictly positive null vector into
    /// another strictly positive null vector (`x_h_p[p] = x_h[perm[p]]`).
    /// This is how [`crate::Mapping::Perm`] keeps `W = S_p · (P·M)` exact:
    /// `S_p · P · M = S · Pᵀ · P · M = S · M`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n_dev()`.
    pub fn permuted(&self, perm: &[usize]) -> Self {
        let nd = self.n_dev();
        assert_eq!(perm.len(), nd, "permutation length must equal N_D");
        let mut seen = vec![false; nd];
        for &l in perm {
            assert!(l < nd && !seen[l], "not a permutation of 0..{nd}");
            seen[l] = true;
        }
        let n_out = self.n_out();
        let mut s = Tensor::zeros(&[n_out, nd]);
        let mut null_vector = Vec::with_capacity(nd);
        for (phys, &logical) in perm.iter().enumerate() {
            for i in 0..n_out {
                *s.at_mut(&[i, phys]) = self.s.at(&[i, logical]);
            }
            null_vector.push(self.null_vector[logical]);
        }
        Self::from_parts(s, null_vector)
    }

    /// Validates an arbitrary candidate periphery matrix against the
    /// paper's conditions.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InvalidPeriphery`] if any entry is outside
    /// `{−1, 0, +1}`, if `rank(S) < N_O`, or if no strictly positive null
    /// vector can be certified. The positive-null-vector search tries the
    /// paper's canonical certificate `x_h = 1` (rows summing to zero),
    /// then single-vector null bases; matrices needing a genuinely
    /// non-trivial positive combination are conservatively rejected.
    pub fn try_new(s: Tensor) -> Result<Self, MappingError> {
        if s.ndim() != 2 {
            return Err(MappingError::InvalidPeriphery {
                reason: format!("expected 2-D matrix, got shape {:?}", s.shape()),
            });
        }
        let (n_out, nd) = (s.shape()[0], s.shape()[1]);
        if n_out == 0 || nd == 0 {
            return Err(MappingError::InvalidPeriphery {
                reason: "empty matrix".into(),
            });
        }
        for (i, &v) in s.data().iter().enumerate() {
            if v != 0.0 && v != 1.0 && v != -1.0 {
                return Err(MappingError::InvalidPeriphery {
                    reason: format!("entry {i} is {v}, not in {{-1, 0, +1}}"),
                });
            }
        }
        // Condition 1: full row rank.
        let r = linalg::rank(&s, TOL).map_err(MappingError::from)?;
        if r != n_out {
            return Err(MappingError::InvalidPeriphery {
                reason: format!("rank(S) = {r} but N_O = {n_out}; W would not span"),
            });
        }
        // Condition 2: strictly positive null vector.
        let null_vector =
            find_positive_null_vector(&s).ok_or_else(|| MappingError::InvalidPeriphery {
                reason: "no strictly positive null vector found; \
                         non-negative decomposition not guaranteed"
                    .into(),
            })?;
        Ok(Self::from_parts(s, null_vector))
    }

    /// The underlying `N_O × N_D` matrix.
    pub fn matrix(&self) -> &Tensor {
        &self.s
    }

    /// Number of signed outputs `N_O`.
    pub fn n_out(&self) -> usize {
        self.s.shape()[0]
    }

    /// Number of crossbar (device) columns `N_D`.
    pub fn n_dev(&self) -> usize {
        self.s.shape()[1]
    }

    /// The certified strictly positive null vector `x_h` (`S·x_h = 0`).
    /// For all three standard mappings this is the all-ones vector.
    pub fn null_vector(&self) -> &[f32] {
        &self.null_vector
    }

    /// Applies the periphery combine to a batch of raw column outputs:
    /// `Y_dev (batch × N_D)  →  Y (batch × N_O)`, i.e. `Y = Y_dev · Sᵀ`,
    /// walking the stencil.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `y_dev` is not `(batch, N_D)`.
    pub fn combine(&self, y_dev: &Tensor) -> Result<Tensor, MappingError> {
        let batch = self.expect_rows("combine", y_dev, self.n_dev(), 1)?;
        let (nd, no) = (self.n_dev(), self.n_out());
        let stencil = self.stencil();
        let mut out = Tensor::zeros(&[batch, no]);
        for (y, row) in out
            .data_mut()
            .chunks_exact_mut(no)
            .zip(y_dev.data().chunks_exact(nd))
        {
            for &(o, d, e) in stencil {
                y[o] += e * row[d];
            }
        }
        Ok(out)
    }

    /// Adjoint of [`PeripheryMatrix::combine`], used for gradient routing:
    /// `G (batch × N_O)  →  G_dev (batch × N_D)`, i.e. `G_dev = G · S`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `grad` is not `(batch, N_O)`.
    pub fn spread(&self, grad: &Tensor) -> Result<Tensor, MappingError> {
        let batch = self.expect_rows("spread", grad, self.n_out(), 1)?;
        let (nd, no) = (self.n_dev(), self.n_out());
        let stencil = self.stencil();
        let mut out = Tensor::zeros(&[batch, nd]);
        for (g_dev, g) in out
            .data_mut()
            .chunks_exact_mut(nd)
            .zip(grad.data().chunks_exact(no))
        {
            for &(o, d, e) in stencil {
                g_dev[d] += e * g[o];
            }
        }
        Ok(out)
    }

    /// The signed matrix `S · M` of a conductance matrix `M (N_D × n)`
    /// — row `o` is the stencil's signed sum of rows of `M`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `m` is not `(N_D, n)`.
    pub fn mul(&self, m: &Tensor) -> Result<Tensor, MappingError> {
        let n = self.expect_rows("mul", m, self.n_dev(), 0)?;
        let mut out = Tensor::zeros(&[self.n_out(), n]);
        let (od, md) = (out.data_mut(), m.data());
        for &(o, d, e) in self.stencil() {
            for (w, &g) in od[o * n..][..n].iter_mut().zip(&md[d * n..][..n]) {
                *w += e * g;
            }
        }
        Ok(out)
    }

    /// The transposed product `Sᵀ · G` of a logical-output matrix
    /// `G (N_O × n)` — the gradient route from `W` back to `M`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `g` is not `(N_O, n)`.
    pub fn t_mul(&self, g: &Tensor) -> Result<Tensor, MappingError> {
        let n = self.expect_rows("t_mul", g, self.n_out(), 0)?;
        let mut out = Tensor::zeros(&[self.n_dev(), n]);
        let (od, gd) = (out.data_mut(), g.data());
        for &(o, d, e) in self.stencil() {
            for (m, &v) in od[d * n..][..n].iter_mut().zip(&gd[o * n..][..n]) {
                *m += e * v;
            }
        }
        Ok(out)
    }

    /// Checks that `t` is 2-D with `len` along `axis` and returns the
    /// other dimension.
    fn expect_rows(
        &self,
        op: &'static str,
        t: &Tensor,
        len: usize,
        axis: usize,
    ) -> Result<usize, MappingError> {
        if t.ndim() != 2 || t.shape()[axis] != len {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                op,
                format!(
                    "expected a 2-D operand with {len} along axis {axis}, got {:?}",
                    t.shape()
                ),
            )));
        }
        Ok(t.shape()[1 - axis])
    }

    /// Number of non-zero entries — the count of periphery add/sub
    /// operations per MVM.
    pub fn num_ops(&self) -> usize {
        self.stencil().len()
    }
}

/// Searches for a strictly positive vector in the null space of `s`.
fn find_positive_null_vector(s: &Tensor) -> Option<Vec<f32>> {
    let (n_out, nd) = (s.shape()[0], s.shape()[1]);
    // Fast path — the paper's canonical certificate: rows sum to zero
    // means x_h = 1 is in the null space.
    let ones_works = (0..n_out).all(|i| {
        let row_sum: f32 = (0..nd).map(|j| s.at(&[i, j])).sum();
        row_sum.abs() <= TOL
    });
    if ones_works {
        return Some(vec![1.0; nd]);
    }
    // General path: compute a null-space basis by RREF and test each basis
    // vector (and its negation) for strict positivity.
    let basis = null_space_basis(s);
    for v in &basis {
        if v.iter().all(|&x| x > TOL) {
            return Some(v.clone());
        }
        if v.iter().all(|&x| x < -TOL) {
            return Some(v.iter().map(|&x| -x).collect());
        }
    }
    // Equal-weight combination of the basis occasionally certifies when no
    // single vector does.
    if basis.len() > 1 {
        let mut sum = vec![0.0f32; nd];
        for v in &basis {
            for (a, &b) in sum.iter_mut().zip(v) {
                *a += b;
            }
        }
        if sum.iter().all(|&x| x > TOL) {
            return Some(sum);
        }
    }
    None
}

/// Null-space basis of `s` via reduced row echelon form (f64 arithmetic).
fn null_space_basis(s: &Tensor) -> Vec<Vec<f32>> {
    let (m, n) = (s.shape()[0], s.shape()[1]);
    let mut a: Vec<f64> = s.data().iter().map(|&x| x as f64).collect();
    let tol = TOL as f64;
    let mut pivot_cols = Vec::new();
    let mut row = 0;
    for col in 0..n {
        if row >= m {
            break;
        }
        let mut pivot = row;
        for r in row + 1..m {
            if a[r * n + col].abs() > a[pivot * n + col].abs() {
                pivot = r;
            }
        }
        if a[pivot * n + col].abs() <= tol {
            continue;
        }
        if pivot != row {
            for c in 0..n {
                a.swap(row * n + c, pivot * n + c);
            }
        }
        let pv = a[row * n + col];
        for c in 0..n {
            a[row * n + c] /= pv;
        }
        for r in 0..m {
            if r != row {
                let f = a[r * n + col];
                if f != 0.0 {
                    for c in 0..n {
                        a[r * n + c] -= f * a[row * n + c];
                    }
                }
            }
        }
        pivot_cols.push(col);
        row += 1;
    }
    let free_cols: Vec<usize> = (0..n).filter(|c| !pivot_cols.contains(c)).collect();
    let mut basis = Vec::with_capacity(free_cols.len());
    for &fc in &free_cols {
        let mut v = vec![0.0f32; n];
        v[fc] = 1.0;
        for (r, &pc) in pivot_cols.iter().enumerate() {
            v[pc] = -a[r * n + fc] as f32;
        }
        basis.push(v);
    }
    basis
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acm_stencil_matches_figure2() {
        let s = PeripheryMatrix::acm(3);
        let expected = Tensor::from_vec(
            vec![
                1.0, -1.0, 0.0, 0.0, //
                0.0, 1.0, -1.0, 0.0, //
                0.0, 0.0, 1.0, -1.0,
            ],
            &[3, 4],
        )
        .unwrap();
        assert_eq!(s.matrix(), &expected);
    }

    #[test]
    fn bias_column_stencil_matches_figure1b() {
        let s = PeripheryMatrix::bias_column(2);
        let expected = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.0, 1.0, -1.0], &[2, 3]).unwrap();
        assert_eq!(s.matrix(), &expected);
    }

    #[test]
    fn double_element_stencil_matches_figure1a() {
        let s = PeripheryMatrix::double_element(2);
        let expected =
            Tensor::from_vec(vec![1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0], &[2, 4]).unwrap();
        assert_eq!(s.matrix(), &expected);
    }

    #[test]
    fn standard_stencils_pass_validation() {
        for no in [1usize, 2, 5, 17] {
            for s in [
                PeripheryMatrix::acm(no),
                PeripheryMatrix::bias_column(no),
                PeripheryMatrix::double_element(no),
            ] {
                let revalidated = PeripheryMatrix::try_new(s.matrix().clone()).unwrap();
                assert_eq!(revalidated.n_out(), no);
            }
        }
    }

    #[test]
    fn standard_stencils_have_all_ones_null_vector() {
        // The paper's canonical x_h = 1 certificate (Sec. III-C).
        for s in [
            PeripheryMatrix::acm(4),
            PeripheryMatrix::bias_column(4),
            PeripheryMatrix::double_element(4),
        ] {
            assert!(s.null_vector().iter().all(|&x| x == 1.0));
            // Verify S * x_h = 0.
            let xh = Tensor::from_vec(s.null_vector().to_vec(), &[s.n_dev()]).unwrap();
            let prod = linalg::matvec(s.matrix(), &xh).unwrap();
            assert!(prod.abs_max() < 1e-6);
        }
    }

    #[test]
    fn each_row_has_one_plus_and_one_minus() {
        // Paper Sec. III-D: each periphery row has exactly two nonzeros,
        // +1 and -1.
        for s in [
            PeripheryMatrix::acm(5),
            PeripheryMatrix::bias_column(5),
            PeripheryMatrix::double_element(5),
        ] {
            for i in 0..s.n_out() {
                let row = s.matrix().row(i);
                let plus = row.data().iter().filter(|&&v| v == 1.0).count();
                let minus = row.data().iter().filter(|&&v| v == -1.0).count();
                assert_eq!((plus, minus), (1, 1));
            }
        }
    }

    #[test]
    fn identity_matrix_is_rejected() {
        // rank is fine but no positive null vector exists (square, full
        // rank => trivial null space): the identity cannot realise signed
        // weights with non-negative M.
        let err = PeripheryMatrix::try_new(Tensor::eye(3)).unwrap_err();
        assert!(matches!(err, MappingError::InvalidPeriphery { .. }));
    }

    #[test]
    fn rank_deficient_matrix_is_rejected() {
        // Two identical rows: rank 1 < N_O = 2.
        let s = Tensor::from_vec(vec![1.0, -1.0, 0.0, 1.0, -1.0, 0.0], &[2, 3]).unwrap();
        let err = PeripheryMatrix::try_new(s).unwrap_err();
        match err {
            MappingError::InvalidPeriphery { reason } => assert!(reason.contains("rank")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn non_ternary_entries_are_rejected() {
        let s = Tensor::from_vec(vec![0.5, -1.0, 0.5], &[1, 3]).unwrap();
        assert!(PeripheryMatrix::try_new(s).is_err());
    }

    #[test]
    fn reversed_acm_is_valid() {
        // Subtracting the *left* neighbour instead of the right one is an
        // equally valid periphery (used by the column-order ablation).
        let mut s = Tensor::zeros(&[3, 4]);
        for j in 0..3 {
            *s.at_mut(&[j, j]) = -1.0;
            *s.at_mut(&[j, j + 1]) = 1.0;
        }
        let p = PeripheryMatrix::try_new(s).unwrap();
        assert_eq!(p.n_dev(), 4);
    }

    #[test]
    fn combine_and_spread_are_adjoint() {
        use xbar_tensor::rng::XorShiftRng;
        let mut rng = XorShiftRng::new(61);
        let s = PeripheryMatrix::acm(4);
        let y_dev = Tensor::rand_normal(&[3, 5], 0.0, 1.0, &mut rng);
        let g = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let lhs: f32 = s
            .combine(&y_dev)
            .unwrap()
            .data()
            .iter()
            .zip(g.data())
            .map(|(&a, &b)| a * b)
            .sum();
        let rhs: f32 = y_dev
            .data()
            .iter()
            .zip(s.spread(&g).unwrap().data())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn combine_computes_adjacent_differences_for_acm() {
        let s = PeripheryMatrix::acm(2);
        let y_dev = Tensor::from_vec(vec![5.0, 3.0, 2.0], &[1, 3]).unwrap();
        let y = s.combine(&y_dev).unwrap();
        assert_eq!(y.data(), &[2.0, 1.0]); // 5-3, 3-2
    }

    #[test]
    fn num_ops_counts_nonzeros() {
        assert_eq!(PeripheryMatrix::acm(4).num_ops(), 8);
        assert_eq!(PeripheryMatrix::double_element(4).num_ops(), 8);
        assert_eq!(PeripheryMatrix::bias_column(4).num_ops(), 8);
    }

    #[test]
    fn block_diagonal_composes_and_revalidates() {
        let blocks = [PeripheryMatrix::acm(3), PeripheryMatrix::acm(2)];
        let s = PeripheryMatrix::block_diagonal(&blocks);
        assert_eq!(s.n_out(), 5);
        assert_eq!(s.n_dev(), 7);
        // Off-diagonal blocks are zero: row 0 never touches group 1.
        for j in 4..7 {
            assert_eq!(s.matrix().at(&[0, j]), 0.0);
        }
        // Still a valid periphery by the expensive check.
        let revalidated = PeripheryMatrix::try_new(s.matrix().clone()).unwrap();
        assert_eq!(revalidated.n_out(), 5);
        assert!(s.null_vector().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn block_diagonal_of_one_is_identityish() {
        let b = PeripheryMatrix::bias_column(4);
        let s = PeripheryMatrix::block_diagonal(std::slice::from_ref(&b));
        assert_eq!(s, b);
    }

    #[test]
    fn permuted_stencil_is_valid_and_undoes_the_row_shuffle() {
        use xbar_tensor::rng::XorShiftRng;
        let base = PeripheryMatrix::bias_column(4);
        // Physical row p stores logical row perm[p].
        let perm = [3usize, 0, 4, 1, 2];
        let sp = base.permuted(&perm);
        // Still a valid periphery by the expensive check.
        let revalidated = PeripheryMatrix::try_new(sp.matrix().clone()).unwrap();
        assert_eq!(revalidated.n_out(), 4);
        // S_p · (P·M) == S · M for any M.
        let mut rng = XorShiftRng::new(63);
        let m = Tensor::rand_uniform(&[5, 6], 0.0, 1.0, &mut rng);
        let mut m_phys = Tensor::zeros(&[5, 6]);
        for (phys, &logical) in perm.iter().enumerate() {
            for c in 0..6 {
                *m_phys.at_mut(&[phys, c]) = m.at(&[logical, c]);
            }
        }
        let want = linalg::matmul(base.matrix(), &m).unwrap();
        let got = linalg::matmul(sp.matrix(), &m_phys).unwrap();
        assert!(got.all_close(&want, 1e-6));
        // Identity permutation is a no-op.
        assert_eq!(base.permuted(&[0, 1, 2, 3, 4]), base);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permuted_rejects_duplicates() {
        let _ = PeripheryMatrix::bias_column(2).permuted(&[0, 0, 1]);
    }

    /// `n` normal draws with every third entry replaced by `+0.0` or
    /// `−0.0`, alternating.
    fn with_signed_zeros(shape: &[usize], rng: &mut xbar_tensor::rng::XorShiftRng) -> Tensor {
        let mut t = Tensor::rand_normal(shape, 0.0, 1.0, rng);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        t
    }

    /// The four stencil walks against `linalg` on the dense matrix, on
    /// inputs holding signed zeros: bitwise when `exact`, else to `rel`
    /// relative.
    fn check_stencil_against_dense(s: &PeripheryMatrix, exact: bool) {
        let mut rng = xbar_tensor::rng::XorShiftRng::new(64 + s.n_dev() as u64);
        let (no, nd) = (s.n_out(), s.n_dev());
        let same = |got: &Tensor, want: &Tensor, op: &str| {
            assert_eq!(got.shape(), want.shape(), "{op}");
            for (&g, &w) in got.data().iter().zip(want.data()) {
                if exact {
                    assert_eq!(g.to_bits(), w.to_bits(), "{op}: {g} vs {w}");
                } else {
                    assert!((g - w).abs() <= 1e-6 * w.abs().max(1.0), "{op}: {g} vs {w}");
                }
            }
        };
        let y_dev = with_signed_zeros(&[5, nd], &mut rng);
        let want = linalg::matmul_nt(&y_dev, s.matrix()).unwrap();
        same(&s.combine(&y_dev).unwrap(), &want, "combine");
        let g = with_signed_zeros(&[5, no], &mut rng);
        let want = linalg::matmul(&g, s.matrix()).unwrap();
        same(&s.spread(&g).unwrap(), &want, "spread");
        let m = with_signed_zeros(&[nd, 7], &mut rng);
        let want = linalg::matmul(s.matrix(), &m).unwrap();
        same(&s.mul(&m).unwrap(), &want, "S·M");
        let g = with_signed_zeros(&[no, 7], &mut rng);
        let want = linalg::matmul_tn(s.matrix(), &g).unwrap();
        same(&s.t_mul(&g).unwrap(), &want, "Sᵀ·G");
        // An all-signed-zero input keeps the dense product's zero signs.
        let zeros = Tensor::from_fn(&[2, nd], |i| if i % 2 == 0 { -0.0 } else { 0.0 });
        let want = linalg::matmul_nt(&zeros, s.matrix()).unwrap();
        same(&s.combine(&zeros).unwrap(), &want, "combine of zeros");
    }

    #[test]
    fn stencil_walks_equal_the_dense_products_bitwise() {
        let mut all = Vec::new();
        for no in [1usize, 2, 5, 17] {
            all.extend([
                PeripheryMatrix::acm(no),
                PeripheryMatrix::bias_column(no),
                PeripheryMatrix::double_element(no),
            ]);
        }
        let blocks = [
            PeripheryMatrix::acm(3),
            PeripheryMatrix::bias_column(4),
            PeripheryMatrix::double_element(2),
        ];
        all.push(PeripheryMatrix::block_diagonal(&blocks));
        all.push(PeripheryMatrix::bias_column(4).permuted(&[3, 0, 4, 1, 2]));
        all.push(PeripheryMatrix::acm(4).permuted(&[4, 2, 0, 1, 3]));
        let reversed = Tensor::from_vec(
            vec![
                -1.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0,
            ],
            &[3, 4],
        )
        .unwrap();
        all.push(PeripheryMatrix::try_new(reversed).unwrap());
        for s in &all {
            // Every constructor derives the stencil of its own matrix.
            assert_eq!(
                s.num_ops(),
                s.matrix().data().iter().filter(|&&v| v != 0.0).count()
            );
            check_stencil_against_dense(s, true);
        }
    }

    #[test]
    fn wide_stencil_rows_match_the_dense_products() {
        // Rows of four terms: the stencil sums them in a different order
        // than the dense kernels may, so equality is to roundoff.
        let s = Tensor::from_vec(
            vec![
                1.0, 1.0, -1.0, -1.0, 0.0, //
                1.0, -1.0, 0.0, 1.0, -1.0, //
                0.0, 1.0, 1.0, -1.0, -1.0,
            ],
            &[3, 5],
        )
        .unwrap();
        let p = PeripheryMatrix::try_new(s).unwrap();
        assert_eq!(p.num_ops(), 12);
        check_stencil_against_dense(&p, false);
    }

    #[test]
    fn stencil_walks_reject_mismatched_shapes() {
        let s = PeripheryMatrix::acm(3);
        assert!(s.combine(&Tensor::zeros(&[2, 3])).is_err());
        assert!(s.spread(&Tensor::zeros(&[2, 4])).is_err());
        assert!(s.mul(&Tensor::zeros(&[3, 2])).is_err());
        assert!(s.t_mul(&Tensor::zeros(&[4, 2])).is_err());
        assert!(s.combine(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn null_space_basis_dimension() {
        let s = PeripheryMatrix::acm(3);
        let basis = null_space_basis(s.matrix());
        // N_D - rank = 4 - 3 = 1.
        assert_eq!(basis.len(), 1);
    }
}
