//! The experiment driver: one binary, one registry.
//!
//! ```text
//! cargo run -p bench --release --bin experiments -- f6 a12   # the named entries, in order
//! cargo run -p bench --release --bin experiments -- all      # every entry, registry order
//! ```
//!
//! Each module regenerates one table or figure (DESIGN.md §4 is the
//! index; EXPERIMENTS.md quotes the `compare` lines). No argument, or an
//! id that is not registered, prints the index and exits 2. There is no
//! other option: every experiment is seeded and takes no input.

mod a10_overlap_ablation;
mod a11_interconnect;
mod a12_compression;
mod a9_hierarchy_ablation;
mod f13_batch_size;
mod f14_input_pipeline;
mod f15_resnet_contrast;
mod f2_osu_allreduce;
mod f3_default_scaling;
mod f4_fusion_sweep;
mod f5_cycle_sweep;
mod f6_tuned_vs_default;
mod f8_miou;
mod o16_trace_breakdown;
mod t12_search_strategies;
mod t1_single_gpu;
mod t7_autotune;
mod v0_validation;

/// `(id, title, run)` in the order `all` runs them (DESIGN.md §4's).
const REGISTRY: &[(&str, &str, fn())] = &[
    ("t1", t1_single_gpu::TITLE, t1_single_gpu::run),
    ("f2", f2_osu_allreduce::TITLE, f2_osu_allreduce::run),
    ("f3", f3_default_scaling::TITLE, f3_default_scaling::run),
    ("f4", f4_fusion_sweep::TITLE, f4_fusion_sweep::run),
    ("f5", f5_cycle_sweep::TITLE, f5_cycle_sweep::run),
    ("f6", f6_tuned_vs_default::TITLE, f6_tuned_vs_default::run),
    ("t7", t7_autotune::TITLE, t7_autotune::run),
    ("f8", f8_miou::TITLE, f8_miou::run),
    ("a9", a9_hierarchy_ablation::TITLE, a9_hierarchy_ablation::run),
    ("a10", a10_overlap_ablation::TITLE, a10_overlap_ablation::run),
    ("a11", a11_interconnect::TITLE, a11_interconnect::run),
    ("a12", a12_compression::TITLE, a12_compression::run),
    ("t12", t12_search_strategies::TITLE, t12_search_strategies::run),
    ("f13", f13_batch_size::TITLE, f13_batch_size::run),
    ("f14", f14_input_pipeline::TITLE, f14_input_pipeline::run),
    ("f15", f15_resnet_contrast::TITLE, f15_resnet_contrast::run),
    ("v0", v0_validation::TITLE, v0_validation::run),
    ("o16", o16_trace_breakdown::TITLE, o16_trace_breakdown::run),
];

fn lookup(id: &str) -> Option<fn()> {
    REGISTRY.iter().find(|e| e.0 == id).map(|e| e.2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Option<Vec<fn()>> = match args.as_slice() {
        [] => None,
        [all] if all == "all" => Some(REGISTRY.iter().map(|e| e.2).collect()),
        ids => ids.iter().map(|id| lookup(id)).collect(),
    };
    let Some(selected) = selected else {
        eprintln!("usage: experiments <id>... | all\n");
        for (id, title, _) in REGISTRY {
            eprintln!("  {id:<4} {title}");
        }
        std::process::exit(2);
    };
    for run in selected {
        run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(rel: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn registry_ids_are_unique_and_nonempty() {
        for (i, (id, title, _)) in REGISTRY.iter().enumerate() {
            assert!(!id.is_empty() && !title.is_empty(), "entry {i}");
            assert!(REGISTRY[..i].iter().all(|e| e.0 != *id), "duplicate id {id}");
            assert_ne!(*id, "all", "`all` is the driver's own word");
        }
    }

    /// Every command the docs, the CI and the verify skill give names an
    /// id this binary would run.
    #[test]
    fn documented_commands_name_registered_ids() {
        const MARKER: &str = "--bin experiments -- ";
        let mut seen = 0;
        for rel in [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = repo_file(rel);
            for (at, _) in text.match_indices(MARKER) {
                let rest = &text[at + MARKER.len()..];
                if rest.starts_with("<id>") {
                    continue;
                }
                let id: String = rest.chars().take_while(char::is_ascii_alphanumeric).collect();
                assert!(
                    id == "all" || lookup(&id).is_some(),
                    "{rel}: `{MARKER}{id}` is not registered"
                );
                seen += 1;
            }
        }
        assert!(seen >= REGISTRY.len(), "only {seen} documented commands found");
    }

    #[test]
    fn every_id_has_a_design_index_row() {
        let design = repo_file("DESIGN.md");
        for (id, _, _) in REGISTRY {
            let row = format!("| **{}** ", id.to_uppercase());
            assert!(design.contains(&row), "DESIGN.md §4 has no row starting `{row}`");
        }
    }
}
