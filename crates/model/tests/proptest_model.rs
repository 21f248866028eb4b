//! Property-based tests of the model crate: unit algebra, task-graph
//! invariants and OMSM validation.

use proptest::prelude::*;

use momsynth_model::ids::{TaskId, TaskTypeId};
use momsynth_model::units::{Cells, Joules, Seconds, Watts};
use momsynth_model::{OmsmBuilder, TaskGraph, TaskGraphBuilder};

fn finite_positive() -> impl Strategy<Value = f64> {
    (1e-6f64..1e6).prop_filter("finite", |v| v.is_finite())
}

/// A random DAG built by only adding forward edges (i < j).
fn random_dag() -> impl Strategy<Value = TaskGraph> {
    (2usize..24, proptest::collection::vec((0usize..1000, 0usize..1000), 0..60), finite_positive())
        .prop_map(|(n, raw_edges, period)| {
            let mut b = TaskGraphBuilder::new("prop", Seconds::new(period));
            let tasks: Vec<TaskId> =
                (0..n).map(|i| b.add_task(format!("t{i}"), TaskTypeId::new(i % 5))).collect();
            for (a, c) in raw_edges {
                let i = a % n;
                let j = c % n;
                if i < j {
                    let _ = b.add_comm(tasks[i], tasks[j], (a % 100) as f64);
                }
            }
            b.build().expect("forward edges cannot form cycles")
        })
}

proptest! {
    #[test]
    fn unit_addition_is_commutative_and_associative(a in -1e9f64..1e9, b in -1e9f64..1e9, c in -1e9f64..1e9) {
        let (x, y, z) = (Seconds::new(a), Seconds::new(b), Seconds::new(c));
        prop_assert_eq!(x + y, y + x);
        prop_assert!((((x + y) + z) - (x + (y + z))).value().abs() <= 1e-6 * (a.abs() + b.abs() + c.abs() + 1.0));
    }

    #[test]
    fn energy_power_time_triangle(p in finite_positive(), t in finite_positive()) {
        let power = Watts::new(p);
        let time = Seconds::new(t);
        let energy: Joules = power * time;
        prop_assert!((energy / time - power).value().abs() <= 1e-9 * p);
        prop_assert!((energy / power - time).value().abs() <= 1e-9 * t);
    }

    #[test]
    fn cells_addition_never_panics_and_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let sum = Cells::new(a) + Cells::new(b);
        prop_assert!(sum >= Cells::new(a).min(Cells::new(b)));
        prop_assert_eq!(Cells::new(a).saturating_sub(Cells::new(b)) , Cells::new(a.saturating_sub(b)));
    }

    #[test]
    fn topological_order_is_a_valid_permutation(graph in random_dag()) {
        let topo = graph.topological_order();
        prop_assert_eq!(topo.len(), graph.task_count());
        let mut seen = vec![false; graph.task_count()];
        for &t in topo {
            for &(_, pred) in graph.predecessors(t) {
                prop_assert!(seen[pred.index()], "{pred} not before {t}");
            }
            seen[t.index()] = true;
        }
    }

    #[test]
    fn successors_and_predecessors_are_mirrors(graph in random_dag()) {
        for t in graph.task_ids() {
            for &(comm, succ) in graph.successors(t) {
                prop_assert!(graph.predecessors(succ).contains(&(comm, t)));
            }
            for &(comm, pred) in graph.predecessors(t) {
                prop_assert!(graph.successors(pred).contains(&(comm, t)));
            }
        }
    }

    #[test]
    fn effective_deadline_never_exceeds_period(graph in random_dag()) {
        for t in graph.task_ids() {
            prop_assert!(graph.effective_deadline(t) <= graph.period());
            prop_assert!(graph.effective_deadline(t).value() > 0.0);
        }
    }

    #[test]
    fn used_types_are_sorted_and_unique(graph in random_dag()) {
        let types = graph.used_types();
        for pair in types.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
        let count: usize = types.iter().map(|&ty| graph.count_of_type(ty)).sum();
        prop_assert_eq!(count, graph.task_count());
    }

    #[test]
    fn omsm_accepts_any_normalised_distribution(raw in proptest::collection::vec(0.01f64..1.0, 1..6)) {
        let total: f64 = raw.iter().sum();
        let mut b = OmsmBuilder::new();
        for (i, &w) in raw.iter().enumerate() {
            let mut g = TaskGraphBuilder::new(format!("m{i}"), Seconds::new(1.0));
            g.add_task("t", TaskTypeId::new(0));
            b.add_mode(format!("m{i}"), w / total, g.build().expect("valid graph"));
        }
        prop_assert!(b.build().is_ok());
    }

    #[test]
    fn graph_serde_round_trips(graph in random_dag()) {
        let json = serde_json::to_string(&graph).expect("serialises");
        let back: TaskGraph = serde_json::from_str(&json).expect("deserialises");
        prop_assert_eq!(back, graph);
    }
}
