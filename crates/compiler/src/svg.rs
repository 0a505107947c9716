//! SVG rendering of compiled schedules: a Gantt chart with one lane per
//! program qubit plus one per distillation factory.
//!
//! Complements [`crate::export::to_csv`] (machine-readable) and
//! [`crate::trace::activity_strip`] (terminal): the SVG view is what you
//! attach to a paper or open in a browser to see where the schedule's time
//! goes — movement (grey) versus logical operations (colours) versus
//! distillation traffic (orange).

use crate::pipeline::CompiledProgram;
use ftqc_arch::SurgeryOp;
use std::fmt::Write as _;

/// Chart geometry constants (pixels).
const LANE_HEIGHT: f64 = 16.0;
const LANE_GAP: f64 = 4.0;
const LABEL_WIDTH: f64 = 64.0;
const CHART_WIDTH: f64 = 960.0;
const AXIS_HEIGHT: f64 = 24.0;

/// The fill colour for an operation kind.
fn color_of(op: &SurgeryOp) -> &'static str {
    match op {
        SurgeryOp::Move { .. } => "#9e9e9e",
        SurgeryOp::DeliverMagic { .. } => "#ff9800",
        SurgeryOp::Cnot { .. } => "#1e88e5",
        SurgeryOp::MergeZz { .. } | SurgeryOp::MergeXx { .. } => "#26a69a",
        SurgeryOp::Single { .. } => "#43a047",
        SurgeryOp::ConsumeMagic { .. } => "#d81b60",
        SurgeryOp::MeasureZ { .. } => "#6d4c41",
        SurgeryOp::PauliFrame { .. } => "#e0e0e0",
    }
}

/// Renders `program` as a standalone SVG document.
///
/// Lanes: one per program qubit (top) and one per factory (bottom, orange
/// delivery bars). Zero-duration frame updates are drawn as thin ticks so
/// they remain visible.
///
/// # Example
///
/// ```
/// use ftqc_circuit::Circuit;
/// use ftqc_compiler::{svg::to_svg, Compiler, CompilerOptions};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1).t(1);
/// let p = Compiler::new(CompilerOptions::default()).compile(&c)?;
/// let svg = to_svg(&p);
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.ends_with("</svg>\n"));
/// # Ok::<(), ftqc_compiler::CompileError>(())
/// ```
pub fn to_svg(program: &CompiledProgram) -> String {
    let n = program.lowered_circuit().num_qubits() as usize;
    let n_factories = program.compile_options().target.factories as usize;
    let lanes = n + n_factories;
    let makespan_d = program.metrics().execution_time.as_d().max(1e-9);
    let height = AXIS_HEIGHT + lanes as f64 * (LANE_HEIGHT + LANE_GAP);
    let width = LABEL_WIDTH + CHART_WIDTH;

    let x_of = |time_d: f64| LABEL_WIDTH + CHART_WIDTH * time_d / makespan_d;
    let y_of = |lane: usize| AXIS_HEIGHT + lane as f64 * (LANE_HEIGHT + LANE_GAP);

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}" font-family="monospace" font-size="10">"#
    );
    let _ = writeln!(
        out,
        r##"<rect x="0" y="0" width="{width}" height="{height}" fill="#fafafa"/>"##
    );

    // Time axis: ten ticks.
    for i in 0..=10 {
        let t = makespan_d * i as f64 / 10.0;
        let x = x_of(t);
        let _ = writeln!(
            out,
            r##"<line x1="{x:.1}" y1="{AXIS_HEIGHT}" x2="{x:.1}" y2="{height}" stroke="#dddddd"/><text x="{x:.1}" y="14" text-anchor="middle" fill="#555555">{t:.0}d</text>"##
        );
    }

    // Lane labels.
    for q in 0..n {
        let y = y_of(q) + LANE_HEIGHT - 4.0;
        let _ = writeln!(
            out,
            r##"<text x="4" y="{y:.1}" fill="#333333">q{q}</text>"##
        );
    }
    for f in 0..n_factories {
        let y = y_of(n + f) + LANE_HEIGHT - 4.0;
        let _ = writeln!(
            out,
            r##"<text x="4" y="{y:.1}" fill="#b36b00">msf{f}</text>"##
        );
    }

    // Bars.
    for item in program.schedule() {
        let start = item.start.as_d();
        let dur = item.duration.as_d();
        let w = (CHART_WIDTH * dur / makespan_d).max(1.0);
        let color = color_of(&item.op.op);
        let title = format!("{} @{start:.1}d +{dur:.1}d", item.op.op);
        let mut draw = |lane: usize| {
            let x = x_of(start);
            let y = y_of(lane);
            let _ = writeln!(
                out,
                r#"<rect x="{x:.1}" y="{y:.1}" width="{w:.1}" height="{LANE_HEIGHT}" fill="{color}"><title>{title}</title></rect>"#
            );
        };
        if let (SurgeryOp::DeliverMagic { .. }, Some(f)) = (&item.op.op, item.op.factory) {
            if (f as usize) < n_factories {
                draw(n + f as usize);
            }
            continue;
        }
        for &q in &item.op.patches {
            if (q as usize) < n {
                draw(q as usize);
            }
        }
    }

    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CompilerOptions};
    use ftqc_circuit::Circuit;

    fn render(c: &Circuit) -> String {
        let p = Compiler::new(CompilerOptions::default())
            .compile(c)
            .expect("compiles");
        to_svg(&p)
    }

    #[test]
    fn svg_is_well_formed() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).t(1).cnot(1, 2).measure(2);
        let svg = render(&c);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // Balanced rect tags (every rect is self-closing or title-closed).
        assert_eq!(
            svg.matches("<rect").count(),
            svg.matches("/rect>").count() + svg.matches("/>").count()
                - svg.matches("<line").count()
        );
    }

    #[test]
    fn lanes_cover_qubits_and_factories() {
        let mut c = Circuit::new(4);
        c.t(0).t(1);
        let svg = render(&c);
        for q in 0..4 {
            assert!(svg.contains(&format!(">q{q}</text>")), "missing lane q{q}");
        }
        assert!(svg.contains(">msf0</text>"), "missing factory lane");
    }

    #[test]
    fn op_kinds_get_distinct_colours() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).t(1).measure(1);
        let svg = render(&c);
        assert!(svg.contains("#43a047"), "single-qubit colour missing");
        assert!(svg.contains("#1e88e5"), "cnot colour missing");
        assert!(svg.contains("#d81b60"), "consume colour missing");
        assert!(svg.contains("#ff9800"), "delivery colour missing");
        assert!(svg.contains("#6d4c41"), "measure colour missing");
    }

    #[test]
    fn empty_schedule_renders() {
        let c = Circuit::new(2);
        let svg = render(&c);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains(">q0</text>"));
    }

    #[test]
    fn titles_describe_ops() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let svg = render(&c);
        assert!(svg.contains("<title>cnot"), "hover titles missing");
    }
}
