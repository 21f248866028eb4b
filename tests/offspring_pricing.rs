//! Candidates priced against the per-mode Eq. 1 terms of genomes priced
//! before: a mode `try_cost` schedules itself, priced from the list
//! scheduler's scratch, equals the full evaluation's mode bit for bit;
//! GA offspring priced against a parent table equal fresh pricing bit
//! for bit; the one reuse rule, `ParentRecord::known`, which
//! the GA's table, the polish and `prove` all ask, includes each mode's
//! core counts, because core replication in one mode reads an ASIC's
//! static area, which spans every mode; an evaluation that panics leaves
//! no stale timing analysis behind for the next one; and the counters —
//! PV-DVS iterations included — stay the same at any thread count and
//! across a checkpoint resume, at one thread or three, because the table
//! is a function of the parents' records, which a resume restores once.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use momsynth::generators::automotive::automotive_ecu;
use momsynth::generators::smartphone::smartphone;
use momsynth::generators::suite::{generate, mul, GeneratorParams};
use momsynth::model::ids::{ModeId, PeId, TaskTypeId};
use momsynth::model::units::{Cells, Seconds, Watts};
use momsynth::model::{
    ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
    TechLibraryBuilder,
};
use momsynth::sched::SystemMapping;
use momsynth::synthesis::telemetry::{Event, GenerationEvent, MemorySink};
use momsynth::synthesis::{
    Checkpoint, CheckpointSpec, Cost, EvalFailure, Evaluator, Gene, GenomeLayout, ParentRecord,
    ParentTable, Solution, SynthControl, SynthesisConfig, Synthesizer, Violations,
};

/// The violation flags a full solution implies.
fn violations(solution: &Solution) -> Violations {
    Violations {
        timing: solution.total_lateness.value() > 1e-12,
        area: !solution.area_overruns.is_empty(),
        transition: solution.transitions.iter().any(|t| !t.is_feasible()),
    }
}

/// A uniformly random genome of `layout`.
fn random_genome(layout: &GenomeLayout, rng: &mut StdRng) -> Vec<Gene> {
    (0..layout.len()).map(|l| rng.gen_range(0..layout.candidates(l).len()) as Gene).collect()
}

/// Random mappings priced by `try_cost` with no known term, each mode
/// scheduled and priced there — from the list scheduler's scratch at
/// fixed voltage, from the voltage-scaled schedule under DVS — against
/// `try_evaluate`'s schedules and power report: each mode's term and
/// lateness, the fitness and the violations, bit for bit. One evaluator
/// prices every cost, so each pass finds the scratch of the pass before
/// it, of the previous mode or mapping; each full evaluation runs on a
/// fresh evaluator.
#[test]
fn modes_priced_where_they_are_scheduled_equal_the_full_evaluation() {
    let mut params = GeneratorParams::new("fresh-modes", 3);
    params.modes = 8;
    params.tasks_per_mode = (6, 14);
    params.hardware_pes = 2;
    params.cls = 2;
    let fixed = SynthesisConfig::fast_preset(0);
    let cases = [
        ("mul6", mul(6), fixed.clone()),
        ("automotive", automotive_ecu(), fixed.clone()),
        ("generated", generate(&params), fixed),
        ("mul6-dvs", mul(6), SynthesisConfig::fast_preset(0).with_dvs()),
    ];
    let (mut remote, mut late) = (0, 0);
    for (seed, (name, system, config)) in cases.iter().enumerate() {
        assert!(system.omsm().mode_count() >= 3, "{name}");
        let layout = GenomeLayout::new(system);
        let dvs = config.dvs.as_ref().map(|d| d.eval);
        let evaluator = Evaluator::new(system, config);
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let mut priced = 0;
        for _ in 0..20 {
            let mapping = layout.decode(&random_genome(&layout, &mut rng));
            let cost = evaluator.try_cost(&mapping, dvs.as_ref(), |_, _| None);
            let full = Evaluator::new(system, config).try_evaluate(mapping, dvs.as_ref());
            let (cost, full) = match (cost, full) {
                (Ok(cost), Ok(full)) => (cost, full),
                (Err(cost), Err(full)) => {
                    assert_eq!(cost, full, "{name}");
                    continue;
                }
                (cost, full) => panic!("{name}: {cost:?} against {full:?}"),
            };
            assert_eq!(cost.reused, 0, "{name}");
            assert_eq!(cost.fitness.to_bits(), full.fitness.to_bits(), "{name}");
            assert_eq!(cost.violations, violations(&full), "{name}");
            assert_eq!(cost.alloc, full.alloc, "{name}");
            assert_eq!(cost.modes.len(), system.omsm().mode_count(), "{name}");
            for (m, term) in cost.modes.iter().enumerate() {
                let (power, schedule) = (&full.power.modes[m], &full.schedules[m]);
                let lateness = schedule.total_lateness(system.omsm().mode(ModeId::new(m)).graph());
                assert_eq!(term.total.value().to_bits(), power.total().value().to_bits(), "{name}");
                assert_eq!(term.lateness.value().to_bits(), lateness.value().to_bits(), "{name}");
                remote += usize::from(power.comm_energy.value() > 0.0);
                late += usize::from(lateness.value() > 0.0);
            }
            priced += 1;
        }
        assert!(priced >= 10, "{name}: only {priced} of 20 mappings priced");
    }
    // The comparison covers transfer energy and lateness, not only zeros.
    assert!(remote > 0 && late > 0, "{remote} modes with transfers, {late} late");
}

/// A child of two-point crossover and per-gene mutation, as the GA
/// breeds one.
fn breed(layout: &GenomeLayout, a: &[Gene], b: &[Gene], rng: &mut StdRng) -> Vec<Gene> {
    let (mut p1, mut p2) = (rng.gen_range(0..a.len()), rng.gen_range(0..a.len()));
    if p1 > p2 {
        std::mem::swap(&mut p1, &mut p2);
    }
    let mut child = a.to_vec();
    child[p1..p2].copy_from_slice(&b[p1..p2]);
    for (locus, gene) in child.iter_mut().enumerate() {
        if rng.gen_bool(0.06) {
            *gene = rng.gen_range(0..layout.candidates(locus).len()) as Gene;
        }
    }
    child
}

/// Prices random parents, then crossover-and-mutation children against
/// the parents' table, and holds each child's cost against a fresh
/// evaluation. Returns how many child modes were reused.
fn children_price_as_fresh(
    name: &str,
    system: &System,
    config: &SynthesisConfig,
    seed: u64,
) -> usize {
    let layout = GenomeLayout::new(system);
    let dvs = config.dvs.as_ref().map(|d| d.eval);
    let evaluator = Evaluator::new(system, config);
    let mut rng = StdRng::seed_from_u64(seed);
    let parents: Vec<Vec<Gene>> = (0..6).map(|_| random_genome(&layout, &mut rng)).collect();
    let records: Vec<ParentRecord> = parents
        .iter()
        .map(|p| {
            let cost = evaluator.try_cost(&layout.decode(p), dvs.as_ref(), |_, _| None).ok();
            ParentRecord::new(p.clone(), cost.as_ref())
        })
        .collect();
    let table = ParentTable::new(&layout, &records);

    let mut reused = 0;
    for _ in 0..16 {
        let (a, b) = (rng.gen_range(0..parents.len()), rng.gen_range(0..parents.len()));
        let child = breed(&layout, &parents[a], &parents[b], &mut rng);
        let known = |mode, alloc: &_| table.known(&child, mode, alloc);
        let cost = evaluator.try_cost(&layout.decode(&child), dvs.as_ref(), known);
        let fresh = Evaluator::new(system, config).evaluate(layout.decode(&child), dvs.as_ref());
        let (cost, fresh) = match (cost, fresh) {
            (Ok(cost), Ok(fresh)) => (cost, fresh),
            (Err(_), Err(_)) => continue,
            (cost, fresh) => panic!("{name}: {cost:?} against fresh {fresh:?}"),
        };
        assert_eq!(cost.fitness.to_bits(), fresh.fitness.to_bits(), "{name}: {child:?}");
        assert_eq!(cost.violations, violations(&fresh), "{name}: {child:?}");
        assert_eq!(cost.alloc, fresh.alloc, "{name}");
        for (term, mode) in cost.modes.iter().zip(&fresh.power.modes) {
            assert_eq!(term.total, mode.total(), "{name}: mode {}", mode.mode);
        }
        reused += cost.reused;
    }
    reused
}

#[test]
fn offspring_priced_against_their_parents_equal_fresh_pricing() {
    let dvs = SynthesisConfig::fast_preset(0).with_dvs();
    let mut params = GeneratorParams::new("offspring", 5);
    params.modes = 3;
    params.tasks_per_mode = (4, 9);
    params.hardware_pes = 2;
    let cases = [
        ("smartphone", smartphone(), dvs.clone()),
        ("mul6", mul(6), dvs),
        ("generated", generate(&params), SynthesisConfig::fast_preset(0)),
    ];
    for (seed, (name, system, config)) in cases.iter().enumerate() {
        let reused = children_price_as_fresh(name, system, config, seed as u64);
        assert!(reused > 0, "{name}: no child mode was reused");
    }
}

/// `count` distinct random genomes of `layout`.
fn distinct_genomes(layout: &GenomeLayout, count: usize, rng: &mut StdRng) -> Vec<Vec<Gene>> {
    let mut genomes: Vec<Vec<Gene>> = Vec::with_capacity(count);
    while genomes.len() < count {
        let genome = random_genome(layout, rng);
        if !genomes.contains(&genome) {
            genomes.push(genome);
        }
    }
    genomes
}

/// The GA hands a table its parents in population order, each with the
/// record it carries: a genome as often as it survived, a genome whose
/// pricing failed with an empty record, records with their gene-slice
/// hashes and, from other callers, without. Such a table answers every
/// child mode as a table of one record per distinct parent does, so
/// each child prices alike against both: the same terms, the same
/// reused modes and the same fitness bits.
#[test]
fn repeated_and_failed_parents_answer_like_the_distinct_ones() {
    let mut params = GeneratorParams::new("repeated", 7);
    params.modes = 4;
    params.tasks_per_mode = (3, 6);
    params.hardware_pes = 2;
    let cases = [
        ("mul6-dvs", mul(6), SynthesisConfig::fast_preset(0).with_dvs()),
        ("generated", generate(&params), SynthesisConfig::fast_preset(0)),
        ("cross-mode", cross_mode_system(), SynthesisConfig::fast_preset(0)),
    ];
    for (seed, (name, system, config)) in cases.iter().enumerate() {
        let layout = GenomeLayout::new(system);
        let dvs = config.dvs.as_ref().map(|d| d.eval);
        let evaluator = Evaluator::new(system, config);
        let mut rng = StdRng::seed_from_u64(40 + seed as u64);
        // Five distinct parents; the last one's pricing failed.
        let distinct = distinct_genomes(&layout, 5, &mut rng);
        let failed = distinct.len() - 1;
        let records: Vec<ParentRecord> = distinct
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let cost = (i != failed)
                    .then(|| evaluator.try_cost(&layout.decode(p), dvs.as_ref(), |_, _| None))
                    .and_then(Result::ok);
                ParentRecord::new(p.clone(), cost.as_ref())
            })
            .collect();
        // The population, best first, as indices into `distinct`: every
        // other record keeps its hashes, as the GA's records do.
        let population = [0, 1, 0, failed, 2, 1, 3, failed, 0];
        let carried: Vec<ParentRecord> = population
            .iter()
            .enumerate()
            .map(|(k, &i)| match k % 2 {
                0 => records[i].clone().with_slices(layout.slice_hashes(&distinct[i])),
                _ => records[i].clone(),
            })
            .collect();
        let as_handed = ParentTable::new(&layout, &carried);
        let deduplicated = ParentTable::new(&layout, &records);

        let (mut reused, mut only_failed) = (0, 0);
        for _ in 0..24 {
            let (a, b) = (rng.gen_range(0..population.len()), rng.gen_range(0..population.len()));
            let child =
                breed(&layout, &distinct[population[a]], &distinct[population[b]], &mut rng);
            let mapping = layout.decode(&child);
            let price = |table: &ParentTable<'_>| {
                let known = |mode, alloc: &_| table.known(&child, mode, alloc);
                evaluator.try_cost(&mapping, dvs.as_ref(), known)
            };
            let (cost, expected) = match (price(&as_handed), price(&deduplicated)) {
                (Ok(cost), Ok(expected)) => (cost, expected),
                (Err(cost), Err(expected)) => {
                    assert_eq!(cost, expected, "{name}");
                    continue;
                }
                (cost, expected) => panic!("{name}: {cost:?} against {expected:?}"),
            };
            assert_eq!(cost.fitness.to_bits(), expected.fitness.to_bits(), "{name}: {child:?}");
            assert_eq!(cost.reused, expected.reused, "{name}: {child:?}");
            assert_eq!(cost.violations, expected.violations, "{name}");
            assert_eq!(cost.alloc, expected.alloc, "{name}");
            for (term, want) in cost.modes.iter().zip(&expected.modes) {
                assert_eq!(term.total.value().to_bits(), want.total.value().to_bits(), "{name}");
                assert_eq!(term.lateness.value().to_bits(), want.lateness.value().to_bits());
            }
            for mode in system.omsm().mode_ids() {
                let known = as_handed.known(&child, mode, &cost.alloc);
                assert_eq!(known, deduplicated.known(&child, mode, &cost.alloc), "{name}");
                let loci = layout.mode_loci(mode);
                let slice = &child[loci.clone()];
                let priced = distinct[..failed].iter().any(|p| &p[loci.clone()] == slice);
                if !priced && &distinct[failed][loci] == slice {
                    assert_eq!(known, None, "{name}: only a failed parent has this slice");
                    only_failed += 1;
                }
            }
            reused += cost.reused;
        }
        assert!(reused > 0, "{name}: no child mode was reused");
        assert!(only_failed > 0, "{name}: no child mode came from the failed parent alone");
    }
}

const CPU: PeId = PeId::new(0);
const ASIC: PeId = PeId::new(1);
const X: TaskTypeId = TaskTypeId::new(0);
const MODE_B: ModeId = ModeId::new(1);

/// A CPU and a 250-cell ASIC on one bus. Types X and Y each have a
/// 100-cell hardware core and a CPU implementation. Mode A runs one Y
/// task; mode B runs three independent 10 ms X tasks under a 12 ms
/// period, low-mobility enough to replicate X's core while area allows.
fn cross_mode_system() -> System {
    let mut tech = TechLibraryBuilder::new();
    let x = tech.add_type("X");
    let y = tech.add_type("Y");
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.2)));
    let asic =
        arch.add_pe(Pe::hardware("asic", PeKind::Asic, Cells::new(250), Watts::from_milli(0.1)));
    arch.add_cl(Cl::bus(
        "bus",
        vec![cpu, asic],
        Seconds::from_micros(1.0),
        Watts::from_milli(1.0),
        Watts::from_milli(0.05),
    ))
    .unwrap();
    for ty in [x, y] {
        tech.set_impl(
            ty,
            cpu,
            Implementation::software(Seconds::from_millis(30.0), Watts::from_milli(50.0)),
        );
        tech.set_impl(
            ty,
            asic,
            Implementation::hardware(
                Seconds::from_millis(10.0),
                Watts::from_milli(5.0),
                Cells::new(100),
            ),
        );
    }
    let mut a = TaskGraphBuilder::new("a", Seconds::from_millis(100.0));
    a.add_task("y", y);
    let mut b = TaskGraphBuilder::new("b", Seconds::from_millis(12.0));
    for name in ["x0", "x1", "x2"] {
        b.add_task(name, x);
    }
    let mut omsm = OmsmBuilder::new();
    omsm.add_mode("a", 0.5, a.build().unwrap());
    omsm.add_mode("b", 0.5, b.build().unwrap());
    System::new("cross_mode", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

/// Mode B on the ASIC, mode A's Y task on `y_pe`.
fn mapping(y_pe: PeId) -> SystemMapping {
    SystemMapping::from_vecs(vec![vec![y_pe], vec![ASIC; 3]])
}

#[test]
fn a_child_whose_replication_is_capped_reprices_the_capped_mode() {
    let system = cross_mode_system();
    let config = SynthesisConfig::fast_preset(0);
    let layout = GenomeLayout::new(&system);
    let evaluator = Evaluator::new(&system, &config);

    // Alone on the ASIC, X replicates to two cores in the parent (a
    // third would need 300 cells).
    let parent = layout.encode(&mapping(CPU));
    let priced: Cost = evaluator.try_cost(&layout.decode(&parent), None, |_, _| None).unwrap();
    assert_eq!(priced.alloc.instances(MODE_B, ASIC, X), 2);
    let record = ParentRecord::new(parent.clone(), Some(&priced));
    let table = ParentTable::new(&layout, [&record]);

    // The child moves A's Y task onto the ASIC, which takes 100 static
    // cells and caps B at one X core although B's genes are the parent's.
    let child = layout.encode(&mapping(ASIC));
    let loci = layout.mode_loci(MODE_B);
    assert_eq!(child[loci.clone()], parent[loci]);
    let fresh = Evaluator::new(&system, &config).evaluate(layout.decode(&child), None).unwrap();
    assert_eq!(fresh.alloc.instances(MODE_B, ASIC, X), 1);
    for known in [
        table.known(&child, MODE_B, &priced.alloc),
        record.known(&layout, &child, MODE_B, &priced.alloc),
    ] {
        assert_eq!(known, Some(priced.modes[MODE_B.index()]));
    }
    for known in [
        table.known(&child, MODE_B, &fresh.alloc),
        record.known(&layout, &child, MODE_B, &fresh.alloc),
    ] {
        assert_eq!(known, None, "mode B must be priced again under its capped allocation");
    }

    // Priced against the GA's table and against the lone record, as the
    // polish and `prove` price, the child is the fresh evaluation.
    let against_table = |mode, alloc: &_| table.known(&child, mode, alloc);
    let against_record = |mode, alloc: &_| record.known(&layout, &child, mode, alloc);
    for cost in [
        evaluator.try_cost(&layout.decode(&child), None, against_table).unwrap(),
        evaluator.try_cost(&layout.decode(&child), None, against_record).unwrap(),
    ] {
        assert_eq!(cost.reused, 0);
        assert_eq!(cost.fitness.to_bits(), fresh.fitness.to_bits());
        assert_eq!(cost.violations, violations(&fresh));
        assert_eq!(cost.alloc, fresh.alloc);
        assert_ne!(cost.modes[MODE_B.index()], priced.modes[MODE_B.index()]);
    }
}

#[test]
fn a_panicking_evaluation_leaves_no_stale_timing_analysis() {
    let system = cross_mode_system();
    let config = SynthesisConfig::fast_preset(0);
    let evaluator = Evaluator::new(&system, &config);
    let valid = mapping(CPU);
    let fresh = || Evaluator::new(&system, &config).try_evaluate(valid.clone(), None);
    assert_eq!(evaluator.try_evaluate(valid.clone(), None), fresh());

    // Mode B's row is one task short: its timing analysis panics half
    // way through, while mode A's row is the valid mapping's.
    let short = SystemMapping::from_vecs(vec![vec![CPU], vec![ASIC; 2]]);
    // A PE id the architecture lacks: the evaluator panics after the
    // timing analyses.
    let unknown_pe = SystemMapping::from_fn(&system, |_| PeId::new(9));
    for hostile in [short, unknown_pe] {
        let failure = evaluator.try_evaluate(hostile, None).unwrap_err();
        assert!(matches!(failure, EvalFailure::Panic(_)), "{failure:?}");
        // The same evaluator still prices the valid mapping exactly as a
        // fresh one does.
        assert_eq!(evaluator.try_evaluate(valid.clone(), None), fresh());
    }
}

/// A short DVS synthesis of the smartphone.
fn dvs_config(seed: u64) -> SynthesisConfig {
    let mut config = SynthesisConfig::fast_preset(seed).with_dvs();
    config.ga.population_size = 14;
    config.ga.max_generations = 12;
    config
}

#[test]
fn dvs_synthesis_is_thread_count_invariant() {
    let system = smartphone();
    let run = |threads| {
        let mut config = dvs_config(4);
        config.threads = threads;
        Synthesizer::new(&system, config).run().expect("schedulable system")
    };
    let (serial, parallel) = (run(1), run(3));
    assert!(serial.counters.dvs_iterations > 0);
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.history, parallel.history);
    assert_eq!(serial.best, parallel.best);
    assert_eq!(serial.evaluations, parallel.evaluations);
}

fn tmp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("momsynth_offspring_{}_{name}", std::process::id()))
}

fn generations(events: &[Event]) -> Vec<GenerationEvent> {
    let generation = |e: &Event| match e {
        Event::Generation(g) => Some(g.normalized()),
        _ => None,
    };
    events.iter().filter_map(generation).collect()
}

/// Runs `dvs_config(6)` on the smartphone uninterrupted and cut short
/// with a checkpoint every generation, resumes the cut run from its last
/// checkpoint at `threads`, and requires the uninterrupted run's
/// generation tail, counters and best.
fn resume_replays_the_uninterrupted_tail(threads: usize) {
    let system = smartphone();
    let config = dvs_config(6);
    let full_sink = MemorySink::new();
    let full = Synthesizer::new(&system, config.clone())
        .run_controlled(SynthControl { sink: Some(&full_sink), ..SynthControl::default() })
        .unwrap();
    assert!(!full.stop_reason.is_interrupted());

    // The same run cut short, checkpointing every generation.
    let path = tmp_file(&format!("resume_cp_{threads}.json"));
    let mut cut = config.clone();
    cut.ga.max_evaluations = Some(60);
    Synthesizer::new(&system, cut)
        .run_controlled(SynthControl {
            checkpoint: Some(CheckpointSpec::every_generations(path.clone(), 1)),
            ..SynthControl::default()
        })
        .unwrap();
    let checkpoint = Checkpoint::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let cut_generation = checkpoint.generation as u64;
    assert!(cut_generation > 0, "the cut must land after the first generation");

    let resumed_sink = MemorySink::new();
    let resumed = Synthesizer::new(&system, SynthesisConfig { threads, ..config })
        .run_controlled(SynthControl {
            resume: Some(checkpoint),
            sink: Some(&resumed_sink),
            ..SynthControl::default()
        })
        .unwrap();

    let tail: Vec<GenerationEvent> = generations(&full_sink.take())
        .into_iter()
        .filter(|g| g.generation > cut_generation)
        .collect();
    assert!(!tail.is_empty(), "the cut must land before the natural end of the run");
    assert!(tail[0].counters.dvs_iterations > 0);
    assert_eq!(generations(&resumed_sink.take()), tail);
    assert_eq!(resumed.counters, full.counters);
    assert_eq!(resumed.best, full.best);
}

#[test]
fn a_resumed_dvs_synthesis_replays_the_uninterrupted_tail() {
    resume_replays_the_uninterrupted_tail(1);
}

/// The restored population's records meet the kept batch workers: the
/// resumed run still replays the serial run.
#[test]
fn a_dvs_synthesis_resumed_at_three_threads_replays_the_serial_tail() {
    resume_replays_the_uninterrupted_tail(3);
}
