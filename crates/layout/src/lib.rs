//! The general-cell layout model.
//!
//! A *general cell* (building block) layout is a set of rectangular macro
//! cells of arbitrary size placed orthogonally and a finite, non-zero
//! distance apart — the paper's three placement restrictions — plus a
//! netlist. Nets are **multi-terminal** (any number of terminals must be
//! electrically connected) and terminals are **multi-pin** (a terminal may
//! be reachable at several equivalent pin locations, all of which become
//! connected once the terminal joins the net's routing tree).
//!
//! The crate provides:
//!
//! * the data model ([`Layout`], [`Cell`], [`Net`], [`Terminal`], [`Pin`]),
//! * placement validation ([`Layout::validate`]) enforcing the paper's
//!   restrictions,
//! * conversion to the routing surface ([`Layout::to_plane`]),
//! * a plain-text interchange format ([`format`](mod@format)),
//! * an ASCII renderer for examples and debugging ([`render`]).
//!
//! # Example
//!
//! ```
//! use gcr_layout::{Layout, Pin};
//! use gcr_geom::{Point, Rect};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut layout = Layout::new(Rect::new(0, 0, 100, 100)?);
//! let alu = layout.add_cell("alu", Rect::new(10, 10, 40, 40)?)?;
//! let rom = layout.add_cell("rom", Rect::new(60, 60, 90, 90)?)?;
//!
//! let clk = layout.add_net("clk");
//! let t0 = layout.add_terminal(clk, "alu_clk");
//! layout.add_pin(t0, Pin::on_cell(alu, Point::new(40, 25)))?;
//! let t1 = layout.add_terminal(clk, "rom_clk");
//! layout.add_pin(t1, Pin::on_cell(rom, Point::new(60, 75)))?;
//!
//! layout.validate()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod error;
pub mod format;
mod model;
mod net;
pub mod render;

pub use cell::{Cell, CellId, CellOutline};
pub use error::LayoutError;
pub use model::Layout;
pub use net::{Net, NetId, Pin, Terminal, TerminalRef};
