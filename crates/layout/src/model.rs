//! The [`Layout`]: cells + netlist + bounds, with validation.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use gcr_geom::{Plane, PlaneIndex, Point, Rect, RectilinearPolygon, ShardedPlane};

use crate::{Cell, CellId, CellOutline, LayoutError, Net, NetId, Pin, Terminal, TerminalRef};

/// A complete general-cell routing problem: the routing boundary, the
/// placed cells, and the netlist.
///
/// See the [crate documentation](crate) for a construction example.
#[derive(Debug, Clone)]
pub struct Layout {
    bounds: Rect,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    /// Name → id of every cell and every net, filled by the `add_*`
    /// methods. Names are never changed or removed, so the maps stay
    /// exact. Ordered maps, so `Debug` output never depends on hash
    /// order.
    cell_ids: BTreeMap<String, CellId>,
    net_ids: BTreeMap<String, NetId>,
    /// Minimum required gap between two cells and between a cell and the
    /// boundary side it does not touch; the paper requires a "finite and
    /// non-zero distance" so the default is 1 unit.
    min_spacing: i64,
}

impl Layout {
    /// Creates an empty layout with the given routing boundary and the
    /// default minimum inter-cell spacing of 1 unit.
    #[must_use]
    pub fn new(bounds: Rect) -> Layout {
        Layout {
            bounds,
            cells: Vec::new(),
            nets: Vec::new(),
            cell_ids: BTreeMap::new(),
            net_ids: BTreeMap::new(),
            min_spacing: 1,
        }
    }

    /// Sets the required minimum gap between cells (used by
    /// [`Layout::validate`]).
    pub fn set_min_spacing(&mut self, spacing: i64) {
        self.min_spacing = spacing;
    }

    /// The required minimum gap between cells.
    #[inline]
    #[must_use]
    pub fn min_spacing(&self) -> i64 {
        self.min_spacing
    }

    /// The routing boundary.
    #[inline]
    #[must_use]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The placed cells.
    #[inline]
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The netlist.
    #[inline]
    #[must_use]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Looks up a cell by id.
    #[must_use]
    pub fn cell(&self, id: CellId) -> Option<&Cell> {
        self.cells.get(id.0)
    }

    /// Looks up a net by id.
    #[must_use]
    pub fn net(&self, id: NetId) -> Option<&Net> {
        self.nets.get(id.0)
    }

    /// Finds a cell id by name.
    #[must_use]
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.cell_ids.get(name).copied()
    }

    /// Finds a net id by name.
    #[must_use]
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_ids.get(name).copied()
    }

    /// Every net id in stable declaration order — the canonical
    /// iteration (and merge) order for whole-layout operations.
    #[must_use]
    pub fn net_ids(&self) -> Vec<NetId> {
        (0..self.nets.len()).map(NetId).collect()
    }

    /// Adds a rectangular cell.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::DuplicateName`] if a cell of this name exists.
    pub fn add_cell(&mut self, name: impl Into<String>, rect: Rect) -> Result<CellId, LayoutError> {
        self.add_cell_with_outline(name, CellOutline::Rect(rect))
    }

    /// Adds a rectilinear-polygon cell (the paper's orthogonal-boundary
    /// extension).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::DuplicateName`] if a cell of this name exists.
    pub fn add_polygon_cell(
        &mut self,
        name: impl Into<String>,
        polygon: RectilinearPolygon,
    ) -> Result<CellId, LayoutError> {
        self.add_cell_with_outline(name, CellOutline::Polygon(polygon))
    }

    fn add_cell_with_outline(
        &mut self,
        name: impl Into<String>,
        outline: CellOutline,
    ) -> Result<CellId, LayoutError> {
        let name = name.into();
        if self.cell_by_name(&name).is_some() {
            return Err(LayoutError::DuplicateName { kind: "cell", name });
        }
        let id = CellId(self.cells.len());
        self.cell_ids.insert(name.clone(), id);
        self.cells.push(Cell::new(name, outline));
        Ok(id)
    }

    /// Adds an (initially empty) net. Duplicate names get a numeric suffix
    /// on export but are rejected here to keep lookups unambiguous.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let mut name = name.into();
        if self.net_by_name(&name).is_some() {
            // Make the name unique deterministically.
            let mut i = 2;
            while self.net_by_name(&format!("{name}_{i}")).is_some() {
                i += 1;
            }
            name = format!("{name}_{i}");
        }
        let id = NetId(self.nets.len());
        self.net_ids.insert(name.clone(), id);
        self.nets.push(Net::new(name));
        id
    }

    /// Adds a terminal to `net` and returns a reference to it.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to this layout.
    pub fn add_terminal(&mut self, net: NetId, name: impl Into<String>) -> TerminalRef {
        let n = self.nets.get_mut(net.0).expect("net id from this layout");
        let terminal = n.push_terminal(Terminal::new(name));
        TerminalRef { net, terminal }
    }

    /// Adds a pin to a terminal.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownId`] if the terminal reference or the
    /// pin's cell id is stale.
    pub fn add_pin(&mut self, terminal: TerminalRef, pin: Pin) -> Result<(), LayoutError> {
        if let Some(cell) = pin.cell {
            if cell.0 >= self.cells.len() {
                return Err(LayoutError::UnknownId { kind: "cell" });
            }
        }
        let net = self
            .nets
            .get_mut(terminal.net.0)
            .ok_or(LayoutError::UnknownId { kind: "net" })?;
        let t = net
            .terminal_mut(terminal.terminal)
            .ok_or(LayoutError::UnknownId { kind: "terminal" })?;
        t.push_pin(pin);
        Ok(())
    }

    /// Moves a placed cell by `(dx, dy)` — the incremental-layout edit an
    /// ECO flow makes — and returns the net ids whose pins rode along.
    ///
    /// Every pin attached to the cell moves with it (a pin on a cell
    /// boundary stays on that boundary), so the layout remains
    /// self-consistent without re-declaring the netlist. Ids are stable:
    /// no cell, net, terminal or pin is renumbered by the move. The move
    /// is **not** validated here — call [`Layout::validate`] to check
    /// bounds and spacing after a batch of edits, exactly as at
    /// construction time.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownId`] if `id` does not name a cell of
    /// this layout.
    pub fn move_cell(&mut self, id: CellId, dx: i64, dy: i64) -> Result<Vec<NetId>, LayoutError> {
        let cell = self
            .cells
            .get_mut(id.0)
            .ok_or(LayoutError::UnknownId { kind: "cell" })?;
        cell.translate(dx, dy);
        let mut moved = Vec::new();
        for (i, net) in self.nets.iter_mut().enumerate() {
            let mut any = false;
            for pin in net.all_pins_mut() {
                if pin.cell == Some(id) {
                    pin.position = Point::new(pin.position.x + dx, pin.position.y + dy);
                    any = true;
                }
            }
            if any {
                moved.push(NetId(i));
            }
        }
        Ok(moved)
    }

    /// Builds the routing surface: the plane bounded by
    /// [`Layout::bounds`] with every cell as an obstacle, in cell order
    /// (cell `i` is obstacle `i`).
    ///
    /// Per the paper's global-routing model, *only* cells are obstacles —
    /// nets are routed independently and do not block each other. The
    /// result is the plain rectangle list, the reference plane whose
    /// queries scan linearly; code that routes on it wraps it in a
    /// [`ShardedPlane`](gcr_geom::ShardedPlane), as every session does
    /// by default.
    #[must_use]
    pub fn to_plane(&self) -> Plane {
        let mut plane = Plane::new(self.bounds);
        for cell in &self.cells {
            match cell.outline() {
                CellOutline::Rect(r) => {
                    plane.add_obstacle(*r);
                }
                CellOutline::Polygon(p) => {
                    plane.add_polygon(p);
                }
            }
        }
        plane
    }

    /// Checks the paper's placement restrictions and netlist sanity,
    /// reporting **all** violations.
    ///
    /// Enforced rules:
    ///
    /// 1. cells are non-degenerate rectangles (or valid orthogonal
    ///    polygons) inside the bounds,
    /// 2. every pair of cells is at least [`Layout::min_spacing`] apart
    ///    (bounding rectangles; "a finite and non-zero distance apart"),
    /// 3. cell pins lie on their cell's boundary; all pins are routable
    ///    (inside bounds, not strictly inside any cell),
    /// 4. every net has ≥ 2 terminals and every terminal ≥ 1 pin.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Multiple`] describing every violation found.
    pub fn validate(&self) -> Result<(), LayoutError> {
        let mut errors: Vec<LayoutError> = Vec::new();
        for cell in &self.cells {
            let r = cell.rect();
            if r.is_degenerate() {
                errors.push(LayoutError::DegenerateCell {
                    cell: cell.name().into(),
                });
            }
            if !self.bounds.contains_rect(&r) {
                errors.push(LayoutError::CellOutOfBounds {
                    cell: cell.name().into(),
                });
            }
        }
        for (i, a) in self.cells.iter().enumerate() {
            for b in self.cells.iter().skip(i + 1) {
                let gap = rect_gap(&a.rect(), &b.rect());
                if gap < self.min_spacing {
                    errors.push(LayoutError::CellsTooClose {
                        a: a.name().into(),
                        b: b.name().into(),
                        gap,
                        required: self.min_spacing,
                    });
                }
            }
        }
        let plane = ShardedPlane::new(self.to_plane());
        let mut seen_nets: HashSet<&str> = HashSet::new();
        for net in &self.nets {
            if !seen_nets.insert(net.name()) {
                errors.push(LayoutError::DuplicateName {
                    kind: "net",
                    name: net.name().into(),
                });
            }
            if net.terminals().len() < 2 {
                errors.push(LayoutError::TooFewTerminals {
                    net: net.name().into(),
                });
            }
            for terminal in net.terminals() {
                if terminal.pins().is_empty() {
                    errors.push(LayoutError::EmptyTerminal {
                        net: net.name().into(),
                        terminal: terminal.name().into(),
                    });
                }
                for pin in terminal.pins() {
                    if let Some(cell_id) = pin.cell {
                        match self.cell(cell_id) {
                            Some(cell) if !cell.outline().on_boundary(pin.position) => {
                                errors.push(LayoutError::PinOffBoundary {
                                    cell: cell.name().into(),
                                    position: pin.position,
                                });
                            }
                            None => errors.push(LayoutError::UnknownId { kind: "cell" }),
                            _ => {}
                        }
                    }
                    if !plane.point_free(pin.position) {
                        errors.push(LayoutError::PinUnroutable {
                            position: pin.position,
                        });
                    }
                }
            }
        }
        match errors.len() {
            0 => Ok(()),
            1 => Err(errors.pop().expect("checked length")),
            _ => Err(LayoutError::Multiple(errors)),
        }
    }

    /// Total half-perimeter wire length estimate over all nets.
    #[must_use]
    pub fn total_hpwl(&self) -> i64 {
        self.nets.iter().map(Net::hpwl).sum()
    }

    /// Total number of pins across all nets.
    #[must_use]
    pub fn pin_count(&self) -> usize {
        self.nets.iter().map(|n| n.all_pins().count()).sum()
    }
}

/// Manhattan-style gap between two rectangles: the Chebyshev-of-axes gap
/// used for spacing checks (0 when they touch or overlap).
fn rect_gap(a: &Rect, b: &Rect) -> i64 {
    let gx = a.span(gcr_geom::Axis::X).gap_to(&b.span(gcr_geom::Axis::X));
    let gy = a.span(gcr_geom::Axis::Y).gap_to(&b.span(gcr_geom::Axis::Y));
    // Rectangles are apart if they are separated on either axis; the
    // relevant clearance is the larger of the two axis gaps.
    gx.max(gy)
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layout {}: {} cell(s), {} net(s), {} pin(s)",
            self.bounds,
            self.cells.len(),
            self.nets.len(),
            self.pin_count()
        )
    }
}

/// Convenience for tests and examples: a two-pin net between two points.
impl Layout {
    /// Adds a simple two-terminal net with one floating pin per terminal.
    /// Useful for benchmarks and tests of point-to-point routing.
    pub fn add_two_pin_net(&mut self, name: impl Into<String>, a: Point, b: Point) -> NetId {
        let net = self.add_net(name);
        let ta = self.add_terminal(net, "a");
        self.add_pin(ta, Pin::floating(a)).expect("fresh terminal");
        let tb = self.add_terminal(net, "b");
        self.add_pin(tb, Pin::floating(b)).expect("fresh terminal");
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Layout {
        Layout::new(Rect::new(0, 0, 100, 100).unwrap())
    }

    #[test]
    fn add_and_lookup_cells() {
        let mut l = base();
        let a = l
            .add_cell("alu", Rect::new(10, 10, 30, 30).unwrap())
            .unwrap();
        assert_eq!(l.cell_by_name("alu"), Some(a));
        assert_eq!(l.cell(a).unwrap().name(), "alu");
        assert!(l
            .add_cell("alu", Rect::new(50, 50, 60, 60).unwrap())
            .is_err());
        assert_eq!(l.cell_by_name("nope"), None);
    }

    #[test]
    fn add_net_deduplicates_names() {
        let mut l = base();
        let n1 = l.add_net("clk");
        let n2 = l.add_net("clk");
        assert_ne!(l.net(n1).unwrap().name(), l.net(n2).unwrap().name());
    }

    /// The name maps answer exactly like a linear scan of the lists, on
    /// a grid die with a polygon cell and repeated net names, before and
    /// after a `.gcl` round trip (the parser resolves every `pin <cell>`
    /// through them).
    #[test]
    fn name_lookups_equal_a_linear_scan() {
        let mut l = Layout::new(Rect::new(0, 0, 460, 400).unwrap());
        for r in 0..12 {
            for c in 0..12 {
                let (x, y) = (10 + 30 * c, 10 + 30 * r);
                let rect = Rect::new(x, y, x + 20, y + 20).unwrap();
                l.add_cell(format!("m{r}_{c}"), rect).unwrap();
            }
        }
        let poly = RectilinearPolygon::new(vec![
            Point::new(380, 10),
            Point::new(440, 10),
            Point::new(440, 40),
            Point::new(410, 40),
            Point::new(410, 70),
            Point::new(380, 70),
        ])
        .unwrap();
        let rom = l.add_polygon_cell("rom", poly).unwrap();
        // "n3_2" is taken before any "n3" repeats, so the second "n3"
        // becomes "n3_3".
        l.add_net("n3_2");
        for i in 0..200 {
            let net = l.add_net(format!("n{}", (i * 7) % 40));
            let t = l.add_terminal(net, "t");
            l.add_pin(t, Pin::on_cell(rom, Point::new(380, 20 + i % 40)))
                .unwrap();
        }
        assert_eq!(l.nets()[30].name(), "n3");
        assert_eq!(l.nets()[70].name(), "n3_3");
        assert_eq!(l.nets()[110].name(), "n3_4");
        let parsed = crate::format::parse(&crate::format::write(&l)).unwrap();
        for layout in [&l, &parsed] {
            let cell_names = layout.cells().iter().map(Cell::name);
            let net_names = layout.nets().iter().map(Net::name);
            let mut names: Vec<&str> = cell_names.chain(net_names).collect();
            names.extend(["", "n40", "m12_0", "rom_2"]);
            for name in names {
                let cell = layout.cells().iter().position(|c| c.name() == name);
                let net = layout.nets().iter().position(|n| n.name() == name);
                assert_eq!(layout.cell_by_name(name), cell.map(CellId), "{name}");
                assert_eq!(layout.net_by_name(name), net.map(NetId), "{name}");
            }
            assert_eq!(layout.cell_by_name("rom"), Some(rom));
            assert_eq!(layout.net_by_name("n40"), None);
        }
    }

    #[test]
    fn valid_layout_passes() {
        let mut l = base();
        let a = l.add_cell("a", Rect::new(10, 10, 30, 30).unwrap()).unwrap();
        let b = l.add_cell("b", Rect::new(50, 50, 70, 70).unwrap()).unwrap();
        let n = l.add_net("n");
        let t0 = l.add_terminal(n, "p");
        l.add_pin(t0, Pin::on_cell(a, Point::new(30, 20))).unwrap();
        let t1 = l.add_terminal(n, "q");
        l.add_pin(t1, Pin::on_cell(b, Point::new(50, 60))).unwrap();
        l.validate().unwrap();
    }

    #[test]
    fn touching_cells_fail_spacing() {
        let mut l = base();
        l.add_cell("a", Rect::new(10, 10, 30, 30).unwrap()).unwrap();
        l.add_cell("b", Rect::new(30, 10, 50, 30).unwrap()).unwrap();
        let err = l.validate().unwrap_err();
        assert!(matches!(err, LayoutError::CellsTooClose { gap: 0, .. }));
    }

    #[test]
    fn diagonal_neighbors_use_axis_gap() {
        let mut l = base();
        // Apart by 5 in x, overlapping in y: gap = 5.
        l.add_cell("a", Rect::new(10, 10, 30, 30).unwrap()).unwrap();
        l.add_cell("b", Rect::new(35, 20, 55, 40).unwrap()).unwrap();
        l.validate().unwrap();
        l.set_min_spacing(6);
        assert!(l.validate().is_err());
    }

    #[test]
    fn out_of_bounds_and_degenerate_cells_fail() {
        let mut l = base();
        l.add_cell("big", Rect::new(50, 50, 150, 70).unwrap())
            .unwrap();
        l.add_cell("flat", Rect::new(10, 10, 10, 30).unwrap())
            .unwrap();
        match l.validate().unwrap_err() {
            LayoutError::Multiple(errors) => {
                assert!(errors
                    .iter()
                    .any(|e| matches!(e, LayoutError::CellOutOfBounds { .. })));
                assert!(errors
                    .iter()
                    .any(|e| matches!(e, LayoutError::DegenerateCell { .. })));
            }
            other => panic!("expected multiple errors, got {other}"),
        }
    }

    #[test]
    fn pin_off_boundary_fails() {
        let mut l = base();
        let a = l.add_cell("a", Rect::new(10, 10, 30, 30).unwrap()).unwrap();
        let b = l.add_cell("b", Rect::new(50, 50, 70, 70).unwrap()).unwrap();
        let n = l.add_net("n");
        let t0 = l.add_terminal(n, "p");
        l.add_pin(t0, Pin::on_cell(a, Point::new(20, 20))).unwrap(); // interior!
        let t1 = l.add_terminal(n, "q");
        l.add_pin(t1, Pin::on_cell(b, Point::new(50, 60))).unwrap();
        let err = l.validate().unwrap_err();
        // The interior pin is both off-boundary and unroutable.
        match err {
            LayoutError::Multiple(errors) => {
                assert!(errors
                    .iter()
                    .any(|e| matches!(e, LayoutError::PinOffBoundary { .. })));
                assert!(errors
                    .iter()
                    .any(|e| matches!(e, LayoutError::PinUnroutable { .. })));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn netlist_sanity_checks() {
        let mut l = base();
        let n = l.add_net("lonely");
        let _t = l.add_terminal(n, "only");
        let m = l.add_net("hollow");
        let _ = l.add_terminal(m, "a");
        let _ = l.add_terminal(m, "b");
        match l.validate().unwrap_err() {
            LayoutError::Multiple(errors) => {
                assert!(errors
                    .iter()
                    .any(|e| matches!(e, LayoutError::TooFewTerminals { .. })));
                assert!(errors
                    .iter()
                    .any(|e| matches!(e, LayoutError::EmptyTerminal { .. })));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn stale_ids_are_rejected() {
        let mut l = base();
        let n = l.add_net("n");
        let t = l.add_terminal(n, "t");
        let bad_pin = Pin::on_cell(CellId(99), Point::new(0, 0));
        assert!(matches!(
            l.add_pin(t, bad_pin),
            Err(LayoutError::UnknownId { kind: "cell" })
        ));
        let bad_t = TerminalRef {
            net: NetId(9),
            terminal: 0,
        };
        assert!(l.add_pin(bad_t, Pin::floating(Point::new(0, 0))).is_err());
    }

    #[test]
    fn to_plane_mirrors_cells() {
        let mut l = base();
        l.add_cell("a", Rect::new(10, 10, 30, 30).unwrap()).unwrap();
        l.add_cell("b", Rect::new(50, 50, 70, 70).unwrap()).unwrap();
        let plane = l.to_plane();
        assert_eq!(plane.obstacle_count(), 2);
        assert!(!plane.point_free(Point::new(20, 20)));
        assert!(plane.point_free(Point::new(40, 40)));
    }

    #[test]
    fn move_cell_translates_outline_and_attached_pins() {
        let mut l = base();
        let a = l.add_cell("a", Rect::new(10, 10, 30, 30).unwrap()).unwrap();
        let b = l.add_cell("b", Rect::new(50, 50, 70, 70).unwrap()).unwrap();
        let n = l.add_net("n");
        let t0 = l.add_terminal(n, "p");
        l.add_pin(t0, Pin::on_cell(a, Point::new(30, 20))).unwrap();
        let t1 = l.add_terminal(n, "q");
        l.add_pin(t1, Pin::on_cell(b, Point::new(50, 60))).unwrap();
        let m = l.add_net("floating");
        let tf = l.add_terminal(m, "f");
        l.add_pin(tf, Pin::floating(Point::new(5, 5))).unwrap();
        let tg = l.add_terminal(m, "g");
        l.add_pin(tg, Pin::floating(Point::new(95, 5))).unwrap();

        let moved = l.move_cell(a, 5, 10).unwrap();
        assert_eq!(moved, vec![n], "only the attached net rides along");
        assert_eq!(
            l.cell(a).unwrap().rect(),
            Rect::new(15, 20, 35, 40).unwrap()
        );
        let pin = l.net(n).unwrap().all_pins().next().unwrap();
        assert_eq!(pin.position, Point::new(35, 30), "pin stays on the face");
        // The unattached cell and floating pins are untouched.
        assert_eq!(
            l.cell(b).unwrap().rect(),
            Rect::new(50, 50, 70, 70).unwrap()
        );
        assert_eq!(
            l.net(m).unwrap().all_pins().next().unwrap().position,
            Point::new(5, 5)
        );
        l.validate().unwrap();
        // Stale ids are rejected.
        assert!(matches!(
            l.move_cell(CellId(99), 1, 1),
            Err(LayoutError::UnknownId { kind: "cell" })
        ));
    }

    #[test]
    fn two_pin_helper_and_totals() {
        let mut l = base();
        l.add_two_pin_net("w", Point::new(0, 0), Point::new(10, 20));
        assert_eq!(l.pin_count(), 2);
        assert_eq!(l.total_hpwl(), 30);
        l.validate().unwrap();
    }

    #[test]
    fn display_summarizes() {
        let l = base();
        assert!(l.to_string().contains("0 cell(s)"));
    }
}
