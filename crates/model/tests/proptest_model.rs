//! Property-based tests of the model crate: unit algebra, task-graph
//! invariants, OMSM validation and link lookup.

use proptest::prelude::*;

use momsynth_model::ids::{PeId, TaskId, TaskTypeId};
use momsynth_model::units::{Cells, Joules, Seconds, Watts};
use momsynth_model::{
    Architecture, ArchitectureBuilder, Cl, OmsmBuilder, Pe, PeKind, TaskGraph, TaskGraphBuilder,
};

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

/// A random architecture of software PEs whose links draw their time per
/// data unit from three values, zero among them, so PE pairs joined by
/// equally fast links are common and some pairs share no link.
fn random_architecture() -> impl Strategy<Value = Architecture> {
    let link = (proptest::collection::vec(0usize..6, 2..5), 0usize..3);
    (1usize..7, proptest::collection::vec(link, 0..7)).prop_map(|(pes, links)| {
        let mut b = ArchitectureBuilder::new();
        for i in 0..pes {
            b.add_pe(Pe::software(format!("p{i}"), PeKind::Gpp, Watts::ZERO));
        }
        for (i, (ends, speed)) in links.into_iter().enumerate() {
            let ends: Vec<PeId> = ends.into_iter().map(|e| PeId::new(e % pes)).collect();
            let time = Seconds::from_micros([0.0, 0.5, 2.0][speed]);
            // A link over fewer than two distinct PEs is refused.
            let _ = b.add_cl(Cl::bus(format!("l{i}"), ends, time, Watts::ZERO, Watts::ZERO));
        }
        b.build().expect("at least one PE")
    })
}

proptest! {
    /// The fastest link's transfer time is, bit for bit, the least
    /// transfer time over every link the two PEs share, for every PE
    /// pair (a PE with itself and a PE outside the architecture
    /// included), and the link is the first of the equally fast ones.
    #[test]
    fn the_fastest_link_is_the_least_shared_transfer(
        arch in random_architecture(),
        volume in (0usize..3, 0.0f64..1e6).prop_map(|(pick, v)| [0.0, 1.0, v][pick]),
    ) {
        for a in 0..=arch.pe_count() {
            for b in 0..=arch.pe_count() {
                let (a, b) = (PeId::new(a), PeId::new(b));
                let time = |cl| arch.cl(cl).transfer_time(volume);
                let fold = arch
                    .cls_between(a, b)
                    .map(time)
                    .fold(None, |best: Option<Seconds>, t| Some(best.map_or(t, |b| b.min(t))));
                let fastest = arch.fastest_cl(a, b);
                prop_assert_eq!(fastest.map(|cl| time(cl).value().to_bits()), fold.map(|t| t.value().to_bits()));
                let least = arch.cls_between(a, b).map(|cl| arch.cl(cl).time_per_data_unit()).fold(None, |best: Option<Seconds>, t| Some(best.map_or(t, |b| b.min(t))));
                let first = arch.cls_between(a, b).find(|&cl| Some(arch.cl(cl).time_per_data_unit()) == least);
                prop_assert_eq!(fastest, first);
            }
        }
    }

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
