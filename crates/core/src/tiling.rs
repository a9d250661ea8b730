//! Tiled crossbar execution for layers larger than one physical array.
//!
//! Physical crossbar arrays are bounded (128×128 is a typical fabricated
//! size; the paper's VGG-9 layers are far larger), so a real accelerator
//! splits a layer across a grid of tiles: input rows are partitioned
//! across tile *rows* (partial sums added digitally after the ADC) and
//! output columns across tile *column-groups*, each of which carries its
//! own local periphery stencil — and, for BC/ACM, its own reference
//! column, since a reference must sit in the same physical array as the
//! columns it serves. The layer-level periphery is therefore
//! block-diagonal ([`PeripheryMatrix::block_diagonal`]), and the per-group
//! `N_D = outputs + 1` accounting replicates one reference column per
//! group.
//!
//! Tiling interacts with the mapping: the column count being split is the
//! mapping's `N_D`, so DE fits `cols/2` outputs per tile against BC/ACM's
//! `cols − 1` — the physical origin of Table I's area gap.
//! [`TileGrid`] exposes the grid so system-level models can count arrays,
//! and its [`TileGrid::tiles`] walk — with [`Tile`]'s block read/write and
//! tile-local fault slicing — is the one place every per-tile stage
//! (programming, parasitics, MVM, the integer readout, self-healing)
//! iterates the grid. [`crate::CrossbarArray`] programs onto the grid of
//! its device's [`DeviceConfig::tile_shape`].

use xbar_device::{DeviceConfig, FaultMap, TileShape};
use xbar_tensor::{backend, linalg, Tensor};

use crate::{decompose, Mapping, MappingError, PeripheryMatrix};

/// One column-group of a [`TileGrid`]: a contiguous run of logical
/// outputs whose device columns (including any local reference column)
/// fit one physical tile width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColGroup {
    /// First logical output in the group.
    pub out_start: usize,
    /// Logical outputs in the group.
    pub out_len: usize,
    /// First device column in the stacked conductance matrix.
    pub dev_start: usize,
    /// Device columns the group occupies (`mapping.num_device_columns(out_len)`).
    pub dev_len: usize,
}

impl ColGroup {
    /// The group's device rows of a stacked `(nd_total × n)` tensor.
    pub fn dev_rows(&self, t: &Tensor) -> Tensor {
        rows_slice(t, self.dev_start, self.dev_len)
    }

    /// The group's logical-output rows of an `(n_out × n)` tensor.
    pub fn out_rows(&self, t: &Tensor) -> Tensor {
        rows_slice(t, self.out_start, self.out_len)
    }

    /// Writes a `(dev_len × n)` tensor over the group's device rows of
    /// `dst`.
    pub fn write_dev_rows(&self, dst: &mut Tensor, src: &Tensor) {
        write_block(dst, self.dev_start, 0, src);
    }

    /// The group's device rows of a stacked fault map, over every input.
    pub fn faults(&self, faults: &FaultMap) -> FaultMap {
        sub_map(faults, self.dev_start, self.dev_len, 0, faults.shape().1)
    }

    /// The group's local stencil, cut out of a block-diagonal layer
    /// periphery — so a row order folded in by [`Mapping::Perm`] is kept.
    ///
    /// # Errors
    ///
    /// [`MappingError::InvalidPeriphery`] if the cut block is not a valid
    /// stencil (a corrupt layer periphery).
    pub fn stencil(&self, periphery: &PeripheryMatrix) -> Result<PeripheryMatrix, MappingError> {
        PeripheryMatrix::try_new(block(
            periphery.matrix(),
            self.out_start,
            self.out_len,
            self.dev_start,
            self.dev_len,
        ))
    }
}

/// One physical array of a [`TileGrid`]: the cells where a row block (a
/// run of inputs) crosses a column group (a run of device columns).
///
/// # Example
///
/// ```
/// use xbar_core::{CrossbarArray, Mapping};
/// use xbar_device::{DeviceConfig, TileShape};
/// use xbar_tensor::{rng::XorShiftRng, Tensor};
///
/// # fn main() -> Result<(), xbar_core::MappingError> {
/// let mut rng = XorShiftRng::new(5);
/// let w = Tensor::rand_uniform(&[20, 50], -0.01, 0.01, &mut rng);
/// let device = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(16, 16)));
/// let xbar = CrossbarArray::program_signed(&w, Mapping::Acm, device, &mut rng)?;
/// // ceil(50/16) row blocks x ceil(20/15) column groups.
/// assert_eq!(xbar.grid().grid(), (4, 2));
/// let cells: usize = xbar
///     .grid()
///     .tiles()
///     .map(|tile| tile.read(xbar.conductances()).len())
///     .sum();
/// assert_eq!(cells, xbar.num_elements());
/// let y = xbar.mvm_signed(&Tensor::rand_uniform(&[50], -1.0, 1.0, &mut rng))?;
/// assert_eq!(y.len(), 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Position in grid order: row blocks outer, column groups inner.
    pub index: usize,
    /// Index of the tile's column group in [`TileGrid::col_groups`].
    pub(crate) group_index: usize,
    /// First input (conductance-matrix column) the tile holds.
    pub row_start: usize,
    /// Inputs the tile holds.
    pub row_len: usize,
    /// The tile's column group.
    pub group: ColGroup,
}

impl Tile {
    /// Copies the tile's `(dev_len × row_len)` block out of a stacked
    /// `(nd_total × n_in)` tensor.
    pub fn read(&self, t: &Tensor) -> Tensor {
        block(
            t,
            self.group.dev_start,
            self.group.dev_len,
            self.row_start,
            self.row_len,
        )
    }

    /// Writes a `(dev_len × row_len)` block over the tile's cells of a
    /// stacked `(nd_total × n_in)` tensor.
    pub fn write(&self, dst: &mut Tensor, src: &Tensor) {
        write_block(dst, self.group.dev_start, self.row_start, src);
    }

    /// The tile's cells of a stacked fault map, in tile-local coordinates.
    pub fn faults(&self, faults: &FaultMap) -> FaultMap {
        sub_map(
            faults,
            self.group.dev_start,
            self.group.dev_len,
            self.row_start,
            self.row_len,
        )
    }
}

/// The tile decomposition of one mapped layer: how `n_in` inputs and
/// `n_out` outputs split across a grid of `TileShape`-bounded physical
/// arrays.
///
/// With `tile = None` the grid is the degenerate 1×1 monolithic case —
/// one row block, one column group, the classic `N_D = N_O + 1`
/// accounting — which preserves the untiled behaviour exactly.
///
/// # Example
///
/// ```
/// use xbar_core::{Mapping, TileGrid};
/// use xbar_device::TileShape;
///
/// # fn main() -> Result<(), xbar_core::MappingError> {
/// // 20 outputs under ACM with 16-wide tiles: 15 outputs (+1 reference)
/// // per group -> 2 groups; 50 inputs over 16-row tiles -> 4 row blocks.
/// let grid = TileGrid::new(20, 50, Mapping::Acm, Some(TileShape::new(16, 16)))?;
/// assert_eq!(grid.grid(), (4, 2));
/// assert_eq!(grid.num_tiles(), 8);
/// assert_eq!(grid.nd_total(), 22); // 20 outputs + one reference per group
/// assert_eq!(grid.replicated_reference_columns(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    mapping: Mapping,
    n_out: usize,
    n_in: usize,
    tile: Option<TileShape>,
    /// `(start, len)` input runs, one per grid row.
    row_blocks: Vec<(usize, usize)>,
    col_groups: Vec<ColGroup>,
}

impl TileGrid {
    /// Computes the grid for an `n_out × n_in` layer under `mapping`,
    /// bounded by `tile` (or monolithic when `None`).
    ///
    /// # Errors
    ///
    /// Returns a shape error if either dimension is zero or the tile is
    /// too narrow to hold even one output under `mapping` (every mapping
    /// needs at least two device columns per tile).
    pub fn new(
        n_out: usize,
        n_in: usize,
        mapping: Mapping,
        tile: Option<TileShape>,
    ) -> Result<Self, MappingError> {
        if n_out == 0 || n_in == 0 {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "tile_grid",
                format!("layer dimensions must be positive, got {n_out} x {n_in}"),
            )));
        }
        let (row_blocks, col_groups) = match tile {
            None => (
                vec![(0, n_in)],
                vec![ColGroup {
                    out_start: 0,
                    out_len: n_out,
                    dev_start: 0,
                    dev_len: mapping.num_device_columns(n_out),
                }],
            ),
            Some(t) => {
                let cap = Self::outputs_per_tile(mapping, t)?;
                let mut col_groups = Vec::with_capacity(n_out.div_ceil(cap));
                let (mut out, mut dev) = (0, 0);
                while out < n_out {
                    let out_len = cap.min(n_out - out);
                    let dev_len = mapping.num_device_columns(out_len);
                    col_groups.push(ColGroup {
                        out_start: out,
                        out_len,
                        dev_start: dev,
                        dev_len,
                    });
                    out += out_len;
                    dev += dev_len;
                }
                let mut row_blocks = Vec::with_capacity(n_in.div_ceil(t.rows));
                let mut row = 0;
                while row < n_in {
                    let len = t.rows.min(n_in - row);
                    row_blocks.push((row, len));
                    row += len;
                }
                (row_blocks, col_groups)
            }
        };
        Ok(Self {
            mapping,
            n_out,
            n_in,
            tile,
            row_blocks,
            col_groups,
        })
    }

    /// The grid of a stacked `(nd × n_in)` conductance matrix, with the
    /// logical output count inferred from `nd`, `mapping` and `tile`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if no output count lays out to `nd` device
    /// columns, or if [`TileGrid::new`] rejects the layout.
    pub(crate) fn for_conductances(
        nd: usize,
        n_in: usize,
        mapping: Mapping,
        tile: Option<TileShape>,
    ) -> Result<Self, MappingError> {
        let cap = match tile {
            Some(t) => Self::outputs_per_tile(mapping, t)?,
            None => usize::MAX,
        };
        let n_out = match mapping {
            Mapping::DoubleElement => Some(nd / 2).filter(|&n| n > 0 && 2 * n == nd),
            // nd = n_out + ceil(n_out / cap) is strictly increasing in
            // n_out, so the group count k with nd = n_out + k is unique
            // when it exists.
            Mapping::BiasColumn | Mapping::Acm | Mapping::Perm => (1..nd)
                .map(|k| nd - k)
                .find(|&n_out| n_out.div_ceil(cap) == nd - n_out),
        };
        let n_out = n_out.ok_or_else(|| {
            MappingError::Shape(xbar_tensor::ShapeError::new(
                "program_conductances",
                format!(
                    "{nd} device columns are inconsistent with {mapping}{}",
                    tile.map_or_else(String::new, |t| format!(" on {t} tiles"))
                ),
            ))
        })?;
        Self::new(n_out, n_in, mapping, tile)
    }

    /// Logical outputs one `tile`-wide physical array can carry under
    /// `mapping`: `cols − 1` for BC/ACM (one local reference column),
    /// `cols / 2` for DE (an element pair per output).
    ///
    /// # Errors
    ///
    /// Returns a shape error if the tile is narrower than two columns.
    pub fn outputs_per_tile(mapping: Mapping, tile: TileShape) -> Result<usize, MappingError> {
        let cap = match mapping {
            Mapping::DoubleElement => tile.cols / 2,
            Mapping::BiasColumn | Mapping::Acm | Mapping::Perm => tile.cols.saturating_sub(1),
        };
        if cap == 0 {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "tile_grid",
                format!(
                    "{mapping} needs tiles at least 2 device columns wide, got {}",
                    tile.cols
                ),
            )));
        }
        Ok(cap)
    }

    /// The mapping the grid was laid out for.
    pub fn mapping(&self) -> Mapping {
        self.mapping
    }

    /// Logical outputs.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Logical inputs.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// The physical tile bound (`None` for the monolithic grid).
    pub fn tile_shape(&self) -> Option<TileShape> {
        self.tile
    }

    /// Grid dimensions `(row blocks, column groups)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.row_blocks.len(), self.col_groups.len())
    }

    /// Total physical arrays.
    pub fn num_tiles(&self) -> usize {
        self.row_blocks.len() * self.col_groups.len()
    }

    /// Whether this is the degenerate 1×1 (monolithic) grid.
    pub fn is_monolithic(&self) -> bool {
        self.num_tiles() == 1
    }

    /// `(start, len)` input runs, one per grid row.
    pub fn row_blocks(&self) -> &[(usize, usize)] {
        &self.row_blocks
    }

    /// The output column-groups, one per grid column.
    pub fn col_groups(&self) -> &[ColGroup] {
        &self.col_groups
    }

    /// Total device columns across all groups (`ND`): per group
    /// `outputs + 1` for BC/ACM and `2·outputs` for DE.
    pub fn nd_total(&self) -> usize {
        self.col_groups
            .last()
            .map(|g| g.dev_start + g.dev_len)
            .unwrap_or(0)
    }

    /// Reference columns added *because of tiling*: the device columns
    /// beyond what the monolithic mapping would need. Zero for DE (no
    /// shared reference to replicate) and for any monolithic grid; one
    /// per extra column-group for BC/ACM.
    pub fn replicated_reference_columns(&self) -> usize {
        self.nd_total() - self.mapping.num_device_columns(self.n_out)
    }

    /// The layer-level periphery: block-diagonal over the per-group
    /// stencils (a single plain stencil for the monolithic grid).
    pub fn periphery(&self) -> PeripheryMatrix {
        let blocks: Vec<PeripheryMatrix> = self
            .col_groups
            .iter()
            .map(|g| self.mapping.periphery(g.out_len))
            .collect();
        PeripheryMatrix::block_diagonal(&blocks)
    }

    /// Decomposes a signed `W (n_out × n_in)` into the stacked per-group
    /// non-negative conductance matrix `M (nd_total × n_in)`: each
    /// column-group's row-slice of `W` is decomposed independently under
    /// the group's local stencil, which is exact for all three mappings.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `w` is not `(n_out, n_in)`, or
    /// [`MappingError::NotRepresentable`] if any group's weights exceed
    /// the device range.
    pub fn decompose(
        &self,
        w: &Tensor,
        range: xbar_device::ConductanceRange,
    ) -> Result<Tensor, MappingError> {
        if w.ndim() != 2 || w.shape() != [self.n_out, self.n_in] {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "tile_grid decompose",
                format!(
                    "expected ({}, {}) weights, got {:?}",
                    self.n_out,
                    self.n_in,
                    w.shape()
                ),
            )));
        }
        if self.col_groups.len() == 1 {
            return decompose(w, self.mapping, range);
        }
        let mut m = Tensor::zeros(&[self.nd_total(), self.n_in]);
        for g in &self.col_groups {
            g.write_dev_rows(&mut m, &decompose(&g.out_rows(w), self.mapping, range)?);
        }
        Ok(m)
    }

    /// Composes the parasitic read non-idealities of `device` onto a
    /// stacked `(nd_total × n_in)` conductance tensor in place: drift
    /// first (cell state decays where it sits; cells stuck in `faults`
    /// are physically frozen and do not drift), then line-resistance
    /// attenuation applied *tile-locally* — each physical array has its
    /// own wire runs, so the IR drop restarts at every tile boundary.
    /// Drift coordinates are the global stacked `(row, col)`, making the
    /// decay a pure function of the cell's position in the layer
    /// regardless of the tile grid. Leaves the tensor bitwise untouched
    /// when both models are off.
    pub fn apply_parasitics(
        &self,
        conductances: &mut Tensor,
        device: &DeviceConfig,
        faults: &FaultMap,
    ) {
        let drift = device.drift();
        let line = device.line_resistance();
        if drift.is_active() {
            let range = device.range();
            let cols = conductances.shape()[1];
            for (idx, g) in conductances.data_mut().iter_mut().enumerate() {
                let (r, c) = (idx / cols, idx % cols);
                if faults.get(r, c).is_none() {
                    *g = drift.decayed(*g, r, c, range);
                }
            }
        }
        if !line.is_none() {
            for tile in self.tiles() {
                let mut cells = tile.read(conductances);
                line.apply_tile(&mut cells);
                tile.write(conductances, &cells);
            }
        }
    }

    /// The physical tiles in grid order — row blocks outer, column
    /// groups inner. Every per-tile stage walks the grid in this order,
    /// which is what pins its RNG draws and reduction order.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = Tile> + '_ {
        let groups = self.col_groups.len();
        (0..self.num_tiles()).map(move |index| {
            let (row_start, row_len) = self.row_blocks[index / groups];
            let group_index = index % groups;
            Tile {
                index,
                group_index,
                row_start,
                row_len,
                group: self.col_groups[group_index],
            }
        })
    }

    /// Checks that `x` is a finite `(batch, n_in)` input batch — a DAC has
    /// no encoding for NaN/Inf, and letting one through would poison
    /// every column sum.
    pub(crate) fn check_batch(&self, x: &Tensor, op: &'static str) -> Result<(), MappingError> {
        if x.ndim() != 2 || x.shape()[1] != self.n_in {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                op,
                format!("expected (batch, {}) input, got {:?}", self.n_in, x.shape()),
            )));
        }
        if !x.data().iter().all(|v| v.is_finite()) {
            return Err(MappingError::NonFiniteInput { op });
        }
        Ok(())
    }

    /// Raw column outputs `X · Gᵀ (batch × nd_total)` of stacked
    /// conductances `g (nd_total × n_in)` for a batch `X (batch × n_in)`,
    /// read tile by tile: each tile's partial product is a task on the
    /// compute pool, and partial sums accumulate digitally across row
    /// blocks in submission order, so the result is bitwise identical at
    /// any thread count. The monolithic grid is one `matmul_nt` over the
    /// whole matrix, with nothing copied.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree with the grid.
    pub(crate) fn raw_mvm(&self, g: &Tensor, x: &Tensor) -> Tensor {
        if self.is_monolithic() {
            return linalg::matmul_nt(x, g).expect("tile dimensions agree by construction");
        }
        let batch = x.shape()[0];
        let nd = self.nd_total();
        let mut raw = Tensor::zeros(&[batch, nd]);
        let raw_data = raw.data_mut();
        backend::ordered_stream(
            self.tiles().collect(),
            |_, tile: Tile| {
                let x_block = cols_slice(x, tile.row_start, tile.row_len);
                let partial = linalg::matmul_nt(&x_block, &tile.read(g))
                    .expect("tile dimensions agree by construction");
                (tile.group, partial)
            },
            |_, (group, partial)| {
                for b in 0..batch {
                    let dst = &mut raw_data[b * nd + group.dev_start..][..group.dev_len];
                    for (d, &p) in dst.iter_mut().zip(&partial.data()[b * group.dev_len..]) {
                        *d += p;
                    }
                }
            },
        );
        raw
    }
}

/// Copies rows `[start, start + len)` of a 2-D tensor into a new tensor.
pub(crate) fn rows_slice(t: &Tensor, start: usize, len: usize) -> Tensor {
    block(t, start, len, 0, t.shape()[1])
}

/// Copies columns `[start, start + len)` of a 2-D tensor into a new tensor.
pub(crate) fn cols_slice(t: &Tensor, start: usize, len: usize) -> Tensor {
    let rows = t.shape()[0];
    block(t, 0, rows, start, len)
}

/// Extracts the `(r0..r0+rl, c0..c0+cl)` block of a 2-D tensor.
fn block(t: &Tensor, r0: usize, rl: usize, c0: usize, cl: usize) -> Tensor {
    let cols = t.shape()[1];
    let mut out = Tensor::zeros(&[rl, cl]);
    for r in 0..rl {
        let src = &t.data()[(r0 + r) * cols + c0..][..cl];
        out.data_mut()[r * cl..(r + 1) * cl].copy_from_slice(src);
    }
    out
}

/// Writes `src` into the `(r0.., c0..)` block of `dst`.
fn write_block(dst: &mut Tensor, r0: usize, c0: usize, src: &Tensor) {
    let cols = dst.shape()[1];
    let (srl, scl) = (src.shape()[0], src.shape()[1]);
    for r in 0..srl {
        dst.data_mut()[(r0 + r) * cols + c0..][..scl]
            .copy_from_slice(&src.data()[r * scl..(r + 1) * scl]);
    }
}

/// The `(r0..r0+rl, c0..c0+cl)` sub-map of a fault map, re-indexed from
/// `(0, 0)`.
fn sub_map(faults: &FaultMap, r0: usize, rl: usize, c0: usize, cl: usize) -> FaultMap {
    let mut sub = FaultMap::pristine(rl, cl);
    for r in 0..rl {
        for c in 0..cl {
            if let Some(kind) = faults.get(r0 + r, c0 + c) {
                sub.set(r, c, kind);
            }
        }
    }
    sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrossbarArray;
    use xbar_tensor::rng::XorShiftRng;

    fn rng() -> XorShiftRng {
        XorShiftRng::new(171)
    }

    /// Programs `w` onto `tile`-bounded arrays of `device`.
    fn tiled(
        w: &Tensor,
        mapping: Mapping,
        device: DeviceConfig,
        tile: TileShape,
        rng: &mut XorShiftRng,
    ) -> Result<CrossbarArray, MappingError> {
        CrossbarArray::program_signed(w, mapping, device.with_tile_shape(Some(tile)), rng)
    }

    #[test]
    fn tiled_matches_monolithic_ideal() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 30], -0.02, 0.02, &mut r);
        let x = Tensor::rand_uniform(&[30], -1.0, 1.0, &mut r);
        for mapping in Mapping::ALL {
            let mono =
                CrossbarArray::program_signed(&w, mapping, DeviceConfig::ideal(), &mut r).unwrap();
            let tiled = tiled(
                &w,
                mapping,
                DeviceConfig::ideal(),
                TileShape::new(8, 8),
                &mut r,
            )
            .unwrap();
            let ym = mono.mvm_signed(&x).unwrap();
            let yt = tiled.mvm_signed(&x).unwrap();
            assert!(yt.all_close(&ym, 1e-4), "{mapping}: tiled != monolithic");
        }
    }

    #[test]
    fn tiled_forward_matches_monolithic_on_ragged_grid() {
        // 13 outputs x 21 inputs on 8x8 tiles: ragged in both directions
        // for every mapping (ACM/BC groups of 7, DE groups of 4).
        let mut r = rng();
        let w = Tensor::rand_uniform(&[13, 21], -0.02, 0.02, &mut r);
        let x = Tensor::rand_uniform(&[5, 21], -1.0, 1.0, &mut r);
        for mapping in Mapping::ALL {
            let mono =
                CrossbarArray::program_signed(&w, mapping, DeviceConfig::ideal(), &mut r).unwrap();
            let tiled = tiled(
                &w,
                mapping,
                DeviceConfig::ideal(),
                TileShape::new(8, 8),
                &mut r,
            )
            .unwrap();
            let ym = mono.forward(&x).unwrap();
            let yt = tiled.forward(&x).unwrap();
            assert!(yt.all_close(&ym, 1e-4), "{mapping}: tiled != monolithic");
            assert_eq!(tiled.effective_weights().shape(), w.shape());
            assert!(tiled.effective_weights().all_close(&w, 1e-4), "{mapping}");
        }
    }

    #[test]
    fn parallel_forward_is_bitwise_identical_to_serial() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[40, 70], -0.01, 0.01, &mut r);
        let x = Tensor::rand_uniform(&[9, 70], -1.0, 1.0, &mut r);
        let tiled = tiled(
            &w,
            Mapping::Acm,
            DeviceConfig::ideal(),
            TileShape::new(16, 16),
            &mut r,
        )
        .unwrap();
        backend::force_serial(true);
        let serial = tiled.forward(&x).unwrap();
        backend::force_serial(false);
        let parallel = tiled.forward(&x).unwrap();
        assert_eq!(serial.data(), parallel.data(), "per-tile fan-out raced");
    }

    #[test]
    fn grid_dimensions_are_ceilings() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[20, 50], -0.01, 0.01, &mut r);
        // ACM on 16x16 tiles: 15 outputs per group -> ceil(20/15) = 2
        // groups; ceil(50/16) = 4 row blocks.
        let t = tiled(
            &w,
            Mapping::Acm,
            DeviceConfig::ideal(),
            TileShape::new(16, 16),
            &mut r,
        )
        .unwrap();
        assert_eq!(t.grid().grid(), (4, 2));
        assert_eq!(t.grid().num_tiles(), 8);
        assert_eq!(t.n_in(), 50);
        assert_eq!(t.n_out(), 20);
        // Per-group ND accounting: 20 outputs + one reference per group.
        assert_eq!(t.n_dev(), 22);
        assert_eq!(t.grid().replicated_reference_columns(), 1);
    }

    #[test]
    fn de_needs_more_tiles_than_acm() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[60, 100], -0.002, 0.002, &mut r);
        let tiles = |mapping| {
            tiled(
                &w,
                mapping,
                DeviceConfig::ideal(),
                TileShape::standard(),
                &mut XorShiftRng::new(1),
            )
            .unwrap()
            .grid()
            .num_tiles()
        };
        assert!(tiles(Mapping::DoubleElement) >= tiles(Mapping::Acm));
        let w2 = Tensor::rand_uniform(&[100, 100], -0.002, 0.002, &mut r);
        let tiles2 = |mapping| {
            tiled(
                &w2,
                mapping,
                DeviceConfig::ideal(),
                TileShape::standard(),
                &mut XorShiftRng::new(2),
            )
            .unwrap()
            .grid()
            .num_tiles()
        };
        // DE fits 64 outputs per 128-wide tile -> 2 groups; ACM fits 127 -> 1.
        assert_eq!(tiles2(Mapping::DoubleElement), 2 * tiles2(Mapping::Acm));
    }

    #[test]
    fn quantization_and_variation_apply_per_tile() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[8, 20], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.05);
        let tiled = tiled(
            &w,
            Mapping::DoubleElement,
            dev,
            TileShape::new(8, 8),
            &mut r,
        )
        .unwrap();
        let x = Tensor::ones(&[20]);
        // Must still approximate the ideal result. Per-output noise std is
        // ~sigma*sqrt(2*n_in) ~ 0.32, so 1.0 is a ~3-sigma bound on the
        // worst of 8 outputs.
        let ideal = linalg::matvec(&w, &x).unwrap();
        let y = tiled.mvm_signed(&x).unwrap();
        assert!(y.sub(&ideal).unwrap().abs_max() < 1.0);
    }

    #[test]
    fn per_tile_fault_maps_and_programming_reports_merge() {
        use xbar_device::FaultModel;
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 24], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::ideal().with_faults(FaultModel::uniform(0.05));
        let tiled = tiled(&w, Mapping::Acm, dev, TileShape::new(8, 8), &mut r).unwrap();
        let stuck = tiled.fault_map().num_stuck();
        assert!(stuck > 0, "5% rate across the grid should hit");
        assert_eq!(tiled.programming_report().num_stuck(), stuck);
        assert_eq!(
            tiled.programming_report().total_cells(),
            tiled.num_elements()
        );
        assert!(tiled.require_converged().is_ok());
        // Frozen cells hold their forced value in the stacked frame.
        let range = dev.range();
        for (row, col, kind) in tiled.fault_map().iter_stuck() {
            assert_eq!(
                tiled.conductances().at(&[row, col]),
                kind.forced_value(range)
            );
        }
    }

    #[test]
    fn tile_local_remap_recovers_weight_accuracy() {
        use xbar_device::FaultModel;
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 24], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::ideal().with_faults(FaultModel::uniform(0.02));
        let naive = tiled(
            &w,
            Mapping::Acm,
            dev,
            TileShape::new(8, 8),
            &mut XorShiftRng::new(5),
        )
        .unwrap();
        let (remapped, report) = CrossbarArray::program_signed_remapped(
            &w,
            Mapping::Acm,
            dev.with_tile_shape(Some(TileShape::new(8, 8))),
            &mut XorShiftRng::new(5),
        )
        .unwrap();
        // Same seed -> same per-tile defect deal.
        assert_eq!(naive.fault_map(), remapped.fault_map());
        assert!(naive.fault_map().num_stuck() > 0);
        let err = |xb: &CrossbarArray| xb.effective_weights().sub(&w).unwrap().norm_sq().sqrt();
        assert!(
            err(&remapped) < err(&naive) * 0.5,
            "remapped error {} vs naive {}",
            err(&remapped),
            err(&naive)
        );
        assert!(report.residual_after() <= report.residual_before());
        assert_eq!(report.stuck_cells(), naive.fault_map().num_stuck());
    }

    #[test]
    fn remap_never_crosses_tile_boundaries() {
        use xbar_device::FaultModel;
        // A fault in one tile must leave every fault-free tile region's
        // targets untouched: the compensation is tile-local. Compare a
        // faulty remapped grid against the same grid with no fault model.
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 8], -0.02, 0.02, &mut r);
        let clean = tiled(
            &w,
            Mapping::Acm,
            DeviceConfig::ideal(),
            TileShape::new(8, 8),
            &mut XorShiftRng::new(7),
        )
        .unwrap();
        let dev = DeviceConfig::ideal().with_faults(FaultModel::uniform(0.04));
        let (remapped, _) = CrossbarArray::program_signed_remapped(
            &w,
            Mapping::Acm,
            dev.with_tile_shape(Some(TileShape::new(8, 8))),
            &mut XorShiftRng::new(7),
        )
        .unwrap();
        assert!(remapped.fault_map().num_stuck() > 0);
        // Any group with no faults anywhere in a given input column must
        // hold exactly the clean targets in that column.
        for g in remapped.grid().col_groups() {
            for col in 0..remapped.n_in() {
                let group_has_fault = remapped.fault_map().iter_stuck().any(|(row, c, _)| {
                    c == col && (g.dev_start..g.dev_start + g.dev_len).contains(&row)
                });
                if group_has_fault {
                    continue;
                }
                for row in g.dev_start..g.dev_start + g.dev_len {
                    assert_eq!(
                        remapped.targets().at(&[row, col]),
                        clean.targets().at(&[row, col]),
                        "remap leaked into fault-free tile region ({row}, {col})"
                    );
                }
            }
        }
    }

    #[test]
    fn resample_keeps_fault_pattern_but_redraws_noise() {
        use xbar_device::FaultModel;
        let mut r = rng();
        let w = Tensor::rand_uniform(&[10, 20], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::ideal()
            .with_faults(FaultModel::uniform(0.05))
            .with_variation_sigma(0.05);
        let mut tiled = tiled(&w, Mapping::Acm, dev, TileShape::new(8, 8), &mut r).unwrap();
        let map_before = tiled.fault_map().clone();
        let prog_before = tiled.conductances().clone();
        let targets_before = tiled.targets().clone();
        tiled.resample_variation(&mut r);
        assert_eq!(
            tiled.fault_map(),
            &map_before,
            "defects belong to the chips"
        );
        assert!(tiled.targets().all_close(&targets_before, 0.0));
        assert!(!tiled.conductances().all_close(&prog_before, 1e-7));
        for (row, col, kind) in tiled.fault_map().iter_stuck() {
            assert_eq!(
                tiled.conductances().at(&[row, col]),
                kind.forced_value(dev.range())
            );
        }
    }

    #[test]
    fn variation_trials_match_serial_resample_loop() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[10, 20], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.05);
        let tiled = tiled(&w, Mapping::Acm, dev, TileShape::new(8, 8), &mut r).unwrap();
        let x = Tensor::rand_uniform(&[3, 20], -1.0, 1.0, &mut r);
        let mut rng_a = XorShiftRng::new(99);
        let got = tiled.variation_trials(&x, 4, &mut rng_a).unwrap();
        assert_eq!(got.len(), 4);
        let mut rng_b = XorShiftRng::new(99);
        let forks: Vec<_> = (0..4u64).map(|t| rng_b.fork(t)).collect();
        for (t, mut fr) in forks.into_iter().enumerate() {
            let mut chip = tiled.clone();
            chip.resample_variation(&mut fr);
            let want = chip.forward(&x).unwrap();
            assert_eq!(got[t].data(), want.data(), "trial {t}");
        }
        assert!(!got[0].all_close(&got[1], 1e-7));
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn program_conductances_infers_output_count() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[13, 10], -0.02, 0.02, &mut r);
        for mapping in Mapping::ALL {
            let grid = TileGrid::new(13, 10, mapping, Some(TileShape::new(8, 8))).unwrap();
            let m = grid.decompose(&w, DeviceConfig::ideal().range()).unwrap();
            let tiled = CrossbarArray::program_conductances(
                &m,
                mapping,
                DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(8, 8))),
                &mut r,
            )
            .unwrap();
            assert_eq!(tiled.n_out(), 13, "{mapping}");
            assert!(tiled.effective_weights().all_close(&w, 1e-4), "{mapping}");
        }
        // An inconsistent stacked row count is rejected (ACM on 8-wide
        // tiles: nd = n_out + ceil(n_out/7); nd = 9 has no solution).
        let bad = Tensor::zeros(&[9, 10]);
        assert!(CrossbarArray::program_conductances(
            &bad,
            Mapping::Acm,
            DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(8, 8))),
            &mut r
        )
        .is_err());
    }

    #[test]
    fn tile_too_narrow_is_rejected() {
        assert!(TileGrid::new(4, 4, Mapping::Acm, Some(TileShape::new(4, 1))).is_err());
        assert!(TileGrid::new(4, 4, Mapping::DoubleElement, Some(TileShape::new(4, 1))).is_err());
        assert!(TileGrid::new(4, 4, Mapping::BiasColumn, Some(TileShape::new(4, 2))).is_ok());
    }

    #[test]
    fn monolithic_grid_is_degenerate_case() {
        let grid = TileGrid::new(10, 30, Mapping::Acm, None).unwrap();
        assert!(grid.is_monolithic());
        assert_eq!(grid.grid(), (1, 1));
        assert_eq!(grid.nd_total(), 11);
        assert_eq!(grid.replicated_reference_columns(), 0);
        assert_eq!(grid.periphery(), Mapping::Acm.periphery(10));
        // A huge tile is monolithic too.
        let big = TileGrid::new(10, 30, Mapping::Acm, Some(TileShape::standard())).unwrap();
        assert!(big.is_monolithic());
        assert_eq!(big.nd_total(), 11);
    }

    #[test]
    fn grid_decompose_matches_whole_matrix_per_group() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 6], -0.02, 0.02, &mut r);
        let range = DeviceConfig::ideal().range();
        for mapping in Mapping::ALL {
            let grid = TileGrid::new(12, 6, mapping, Some(TileShape::new(8, 8))).unwrap();
            let m = grid.decompose(&w, range).unwrap();
            assert_eq!(m.shape(), [grid.nd_total(), 6]);
            for g in grid.col_groups() {
                let w_group = rows_slice(&w, g.out_start, g.out_len);
                let m_group = decompose(&w_group, mapping, range).unwrap();
                let got = rows_slice(&m, g.dev_start, g.dev_len);
                assert!(got.all_close(&m_group, 0.0), "{mapping}");
            }
        }
    }

    #[test]
    fn rejects_bad_input_length() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[4, 10], -0.05, 0.05, &mut r);
        let dev = DeviceConfig::ideal();
        let t = tiled(&w, Mapping::Acm, dev, TileShape::new(4, 4), &mut r).unwrap();
        assert!(t.mvm_signed(&Tensor::zeros(&[11])).is_err());
        assert!(t.forward(&Tensor::zeros(&[2, 11])).is_err());
        let bad = Tensor::from_vec(vec![f32::NAN; 10], &[10]).unwrap();
        assert!(matches!(
            t.mvm_raw(&bad),
            Err(MappingError::NonFiniteInput { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn tile_shape_rejects_zero() {
        let _ = TileShape::new(0, 4);
    }

    #[test]
    fn tiled_parasitics_off_effective_is_bitwise_programmed() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 30], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.03);
        for mapping in Mapping::ALL {
            let tiled = tiled(&w, mapping, dev, TileShape::new(8, 8), &mut r).unwrap();
            assert_eq!(
                tiled.effective_conductances().data(),
                tiled.conductances().data(),
                "{mapping}: parasitics off must be a pure pass-through"
            );
        }
    }

    #[test]
    fn tiled_line_resistance_restarts_at_tile_boundaries() {
        use xbar_device::LineResistanceModel;
        // The same layer split over smaller tiles has shorter wire runs,
        // so the worst-case attenuation is milder than monolithic.
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 30], 0.005, 0.02, &mut r);
        let x = Tensor::ones(&[30]);
        let dev = DeviceConfig::ideal().with_line_resistance(LineResistanceModel::new(0.01));
        let ideal = linalg::matvec(&w, &x).unwrap();
        let err = |tile: TileShape| {
            let t = tiled(&w, Mapping::Acm, dev, tile, &mut rng()).unwrap();
            t.mvm_signed(&x).unwrap().sub(&ideal).unwrap().abs_max()
        };
        assert!(err(TileShape::new(8, 8)) < err(TileShape::new(128, 128)));
    }

    #[test]
    fn tiled_perm_sorts_each_group_and_stays_exact() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[13, 21], -0.02, 0.02, &mut r);
        let tiled = tiled(
            &w,
            Mapping::Perm,
            DeviceConfig::ideal(),
            TileShape::new(8, 8),
            &mut r,
        )
        .unwrap();
        assert!(tiled.effective_weights().all_close(&w, 1e-4));
        // Within every column-group the physical rows are in descending
        // mid-deviation order.
        let mid = tiled.device().range().midpoint();
        let n_in = tiled.n_in();
        for g in tiled.grid().col_groups() {
            let dev: Vec<f32> = (g.dev_start..g.dev_start + g.dev_len)
                .map(|j| {
                    tiled.conductances().data()[j * n_in..(j + 1) * n_in]
                        .iter()
                        .map(|&v| (v - mid).abs())
                        .sum()
                })
                .collect();
            for pair in dev.windows(2) {
                assert!(pair[0] >= pair[1] - 1e-6, "group not sorted: {dev:?}");
            }
        }
    }

    #[test]
    fn tiled_perm_remap_still_recovers_faults() {
        use xbar_device::FaultModel;
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 24], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::ideal().with_faults(FaultModel::uniform(0.02));
        let naive = tiled(
            &w,
            Mapping::Perm,
            dev,
            TileShape::new(8, 8),
            &mut XorShiftRng::new(5),
        )
        .unwrap();
        let (remapped, report) = CrossbarArray::program_signed_remapped(
            &w,
            Mapping::Perm,
            dev.with_tile_shape(Some(TileShape::new(8, 8))),
            &mut XorShiftRng::new(5),
        )
        .unwrap();
        assert!(naive.fault_map().num_stuck() > 0);
        let err = |xb: &CrossbarArray| xb.effective_weights().sub(&w).unwrap().norm_sq().sqrt();
        assert!(
            err(&remapped) < err(&naive),
            "null-space slack survives the permutation"
        );
        assert!(report.residual_after() <= report.residual_before());
    }
}
