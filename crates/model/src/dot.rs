//! Graphviz DOT export for task graphs, the OMSM and architectures.
//!
//! The exports are intended for inspection and documentation: render with
//! `dot -Tsvg`. Node labels carry the information a designer needs to read
//! the specification (task types, probabilities, transition limits, PE
//! kinds and areas).
//!
//! # Examples
//!
//! ```
//! use momsynth_model::{dot, TaskGraphBuilder};
//! use momsynth_model::ids::TaskTypeId;
//! use momsynth_model::units::Seconds;
//!
//! # fn main() -> Result<(), momsynth_model::ModelError> {
//! let mut b = TaskGraphBuilder::new("g", Seconds::new(1.0));
//! let a = b.add_task("src", TaskTypeId::new(0));
//! let c = b.add_task("dst", TaskTypeId::new(1));
//! b.add_comm(a, c, 64.0)?;
//! let text = dot::task_graph_to_dot(&b.build()?);
//! assert!(text.starts_with("digraph"));
//! assert!(text.contains("src"));
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;

use crate::arch::Architecture;
use crate::omsm::Omsm;
use crate::task_graph::TaskGraph;

fn escape(s: &str) -> String {
    s.replace('"', "\\\"")
}

/// Renders a task graph as a DOT digraph (tasks as boxes, data volumes as
/// edge labels).
pub fn task_graph_to_dot(graph: &TaskGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(graph.name()));
    let _ = writeln!(out, "  rankdir=TB; node [shape=box, fontsize=10];");
    let _ = writeln!(
        out,
        "  label=\"{} (period {:.3} ms)\";",
        escape(graph.name()),
        graph.period().as_millis()
    );
    for (id, task) in graph.tasks() {
        let deadline = match task.deadline() {
            Some(d) => format!("\\nθ={:.3} ms", d.as_millis()),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "  t{} [label=\"{}\\n{}{}\"];",
            id.index(),
            escape(task.name()),
            task.task_type(),
            deadline
        );
    }
    for (_, comm) in graph.comms() {
        let _ = writeln!(
            out,
            "  t{} -> t{} [label=\"{}\"];",
            comm.src().index(),
            comm.dst().index(),
            comm.data_units()
        );
    }
    out.push_str("}\n");
    out
}

/// Renders the top-level mode state machine as a DOT digraph (modes as
/// ellipses sized by probability, transition-time limits as edge labels).
pub fn omsm_to_dot(omsm: &Omsm) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph omsm {{");
    let _ = writeln!(out, "  node [shape=ellipse, fontsize=10];");
    for (id, mode) in omsm.modes() {
        let _ = writeln!(
            out,
            "  m{} [label=\"{}\\nΨ={:.2}\\n{} tasks\"];",
            id.index(),
            escape(mode.name()),
            mode.probability(),
            mode.graph().task_count()
        );
    }
    for (_, t) in omsm.transitions() {
        let _ = writeln!(
            out,
            "  m{} -> m{} [label=\"{:.1} ms\"];",
            t.from().index(),
            t.to().index(),
            t.max_time().as_millis()
        );
    }
    out.push_str("}\n");
    out
}

/// Renders the architecture as a DOT graph (PEs as boxes, links as
/// diamond nodes connecting their endpoints).
pub fn architecture_to_dot(arch: &Architecture) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph architecture {{");
    let _ = writeln!(out, "  node [fontsize=10];");
    for (id, pe) in arch.pes() {
        let area = match pe.area() {
            Some(a) => format!("\\n{a}"),
            None => String::new(),
        };
        let dvs = if pe.dvs().is_some() { "\\nDVS" } else { "" };
        let _ = writeln!(
            out,
            "  pe{} [shape=box, label=\"{} ({}){}{}\"];",
            id.index(),
            escape(pe.name()),
            pe.kind(),
            area,
            dvs
        );
    }
    for (id, cl) in arch.cls() {
        let _ =
            writeln!(out, "  cl{} [shape=diamond, label=\"{}\"];", id.index(), escape(cl.name()));
        for pe in cl.endpoints() {
            let _ = writeln!(out, "  pe{} -- cl{};", pe.index(), id.index());
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ArchitectureBuilder, Cl, Pe, PeKind};
    use crate::ids::TaskTypeId;
    use crate::omsm::OmsmBuilder;
    use crate::task_graph::TaskGraphBuilder;
    use crate::units::{Cells, Seconds, Watts};

    fn graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("demo", Seconds::from_millis(20.0));
        let a = b.add_task_with_deadline("alpha", TaskTypeId::new(0), Seconds::from_millis(9.0));
        let c = b.add_task("beta \"quoted\"", TaskTypeId::new(1));
        b.add_comm(a, c, 42.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn task_graph_dot_contains_tasks_edges_and_deadlines() {
        let text = task_graph_to_dot(&graph());
        assert!(text.starts_with("digraph"));
        assert!(text.contains("alpha"));
        assert!(text.contains("θ=9.000 ms"));
        assert!(text.contains("t0 -> t1"));
        assert!(text.contains("42"));
        // Quotes must be escaped.
        assert!(text.contains("beta \\\"quoted\\\""));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn omsm_dot_contains_modes_and_transition_limits() {
        let mut b = OmsmBuilder::new();
        let m0 = b.add_mode("idle", 0.8, graph());
        let m1 = b.add_mode("busy", 0.2, graph());
        b.add_transition(m0, m1, Seconds::from_millis(5.0)).unwrap();
        let text = omsm_to_dot(&b.build().unwrap());
        assert!(text.contains("idle"));
        assert!(text.contains("Ψ=0.80"));
        assert!(text.contains("m0 -> m1"));
        assert!(text.contains("5.0 ms"));
    }

    #[test]
    fn architecture_dot_marks_dvs_and_area() {
        let mut b = ArchitectureBuilder::new();
        let cpu = b.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = b.add_pe(Pe::hardware("acc", PeKind::Fpga, Cells::new(500), Watts::ZERO));
        b.add_cl(Cl::bus("bus", vec![cpu, hw], Seconds::ZERO, Watts::ZERO, Watts::ZERO)).unwrap();
        let text = architecture_to_dot(&b.build().unwrap());
        assert!(text.starts_with("graph"));
        assert!(text.contains("cpu (GPP)"));
        assert!(text.contains("acc (FPGA)"));
        assert!(text.contains("500 cells"));
        assert!(text.contains("pe0 -- cl0"));
        assert!(text.contains("pe1 -- cl0"));
    }
}
