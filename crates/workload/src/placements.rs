//! Placement generators: general cells in realistic arrangements.
//!
//! All generators respect the paper's placement restrictions by
//! construction: rectangular cells, orthogonal placement, and a non-zero
//! gap (the channel width) between any two cells and to the boundary.

use gcr_geom::{Coord, Rect};
use gcr_layout::Layout;
use rand::rngs::StdRng;
use rand::Rng;

/// Parameters for the macro-grid generator.
#[derive(Debug, Clone, Copy)]
pub struct MacroGridParams {
    /// Grid rows of macros.
    pub rows: usize,
    /// Grid columns of macros.
    pub cols: usize,
    /// Minimum cell edge length.
    pub cell_min: Coord,
    /// Maximum cell edge length (slot size).
    pub cell_max: Coord,
    /// Channel width between slots (and to the boundary).
    pub channel: Coord,
}

impl Default for MacroGridParams {
    fn default() -> MacroGridParams {
        MacroGridParams {
            rows: 3,
            cols: 3,
            cell_min: 12,
            cell_max: 24,
            channel: 8,
        }
    }
}

/// A grid of randomly sized macros in uniform slots — the "several
/// individuals produce components independently, then assemble" scenario
/// from the paper's introduction.
///
/// Cell sizes vary within the slot, so the channels between cells have
/// irregular widths, exactly the situation channel-free global routing is
/// meant for.
#[must_use]
pub fn macro_grid(params: &MacroGridParams, rng: &mut StdRng) -> Layout {
    let slot = params.cell_max + params.channel;
    let width = params.cols as Coord * slot + params.channel;
    let height = params.rows as Coord * slot + params.channel;
    let bounds = Rect::new(0, 0, width, height).expect("positive extents");
    let mut layout = Layout::new(bounds);
    for r in 0..params.rows {
        for c in 0..params.cols {
            let w = rng.gen_range(params.cell_min..=params.cell_max);
            let h = rng.gen_range(params.cell_min..=params.cell_max);
            let x0 = params.channel + c as Coord * slot;
            let y0 = params.channel + r as Coord * slot;
            // Center the cell in its slot so gaps stay positive.
            let dx = (params.cell_max - w) / 2;
            let dy = (params.cell_max - h) / 2;
            let rect = Rect::new(x0 + dx, y0 + dy, x0 + dx + w, y0 + dy + h)
                .expect("slot arithmetic is positive");
            layout
                .add_cell(format!("m{r}_{c}"), rect)
                .expect("slot names are unique");
        }
    }
    layout
}

/// A core macro grid surrounded by a ring of pad cells — the "connect the
/// components together, along with the pads, to form a complete chip"
/// scenario.
#[must_use]
pub fn pad_ring(core: &MacroGridParams, pads_per_side: usize, rng: &mut StdRng) -> Layout {
    let pad = 8; // pad cell edge
    let margin = 2 * pad + 12; // pad ring + clearance to the core
    let inner = macro_grid(core, rng);
    let ib = inner.bounds();
    let bounds = Rect::new(0, 0, ib.width() + 2 * margin, ib.height() + 2 * margin)
        .expect("positive extents");
    let mut layout = Layout::new(bounds);
    // Re-place the core cells, shifted inward.
    for cell in inner.cells() {
        let r = cell.rect();
        let shifted = Rect::new(
            r.xmin() + margin,
            r.ymin() + margin,
            r.xmax() + margin,
            r.ymax() + margin,
        )
        .expect("shift preserves ordering");
        layout.add_cell(cell.name(), shifted).expect("unique names");
    }
    // Pads along each side, evenly spread.
    let spread = |i: usize, extent: Coord| -> Coord {
        let n = pads_per_side as Coord;
        let slot = extent / n;
        slot * i as Coord + slot / 2
    };
    for i in 0..pads_per_side {
        let cx = spread(i, bounds.width());
        let cy = spread(i, bounds.height());
        for (name, rect) in [
            (
                format!("pad_s{i}"),
                Rect::new(cx - pad / 2, 2, cx + pad / 2, 2 + pad),
            ),
            (
                format!("pad_n{i}"),
                Rect::new(
                    cx - pad / 2,
                    bounds.ymax() - 2 - pad,
                    cx + pad / 2,
                    bounds.ymax() - 2,
                ),
            ),
            (
                format!("pad_w{i}"),
                Rect::new(2, cy - pad / 2, 2 + pad, cy + pad / 2),
            ),
            (
                format!("pad_e{i}"),
                Rect::new(
                    bounds.xmax() - 2 - pad,
                    cy - pad / 2,
                    bounds.xmax() - 2,
                    cy + pad / 2,
                ),
            ),
        ] {
            layout
                .add_cell(name, rect.expect("pad fits"))
                .expect("pad names are unique");
        }
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_for;

    #[test]
    fn macro_grid_is_valid_and_sized() {
        let mut rng = rng_for("placements", 0);
        let l = macro_grid(&MacroGridParams::default(), &mut rng);
        assert_eq!(l.cells().len(), 9);
        l.validate().unwrap();
    }

    #[test]
    fn macro_grid_scales() {
        let mut rng = rng_for("placements", 1);
        let params = MacroGridParams {
            rows: 6,
            cols: 5,
            ..MacroGridParams::default()
        };
        let l = macro_grid(&params, &mut rng);
        assert_eq!(l.cells().len(), 30);
        l.validate().unwrap();
    }

    #[test]
    fn pad_ring_is_valid() {
        let mut rng = rng_for("placements", 3);
        let core = MacroGridParams {
            rows: 2,
            cols: 2,
            ..MacroGridParams::default()
        };
        let l = pad_ring(&core, 3, &mut rng);
        assert_eq!(l.cells().len(), 4 + 12);
        l.validate().unwrap();
    }

    #[test]
    fn generators_are_deterministic() {
        let a = macro_grid(&MacroGridParams::default(), &mut rng_for("d", 7));
        let b = macro_grid(&MacroGridParams::default(), &mut rng_for("d", 7));
        for (ca, cb) in a.cells().iter().zip(b.cells()) {
            assert_eq!(ca.rect(), cb.rect());
        }
    }
}
