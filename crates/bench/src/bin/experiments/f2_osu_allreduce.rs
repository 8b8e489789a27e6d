//! F2 — OSU-style allreduce microbenchmark across MPI personalities.
//!
//! The communication-level mechanism behind the scaling results: latency
//! vs message size for MVAPICH2-GDR, the Spectrum-MPI-like default, and
//! the NCCL-like backend, at 1, 4 and 16 Summit nodes.

use bench::{header, paper_machine};
use mpi_profiles::{allreduce_sweep, size_ladder, Backend};
use summit_metrics::{series::render_columns, Series};

pub const TITLE: &str = "osu_allreduce latency vs message size";

pub fn run() {
    header("F2", TITLE, "mechanism behind claims C2/C3 (default vs tuned MPI)");
    let machine = paper_machine();
    let sizes = size_ladder(1 << 10, 256 << 20);

    for gpus in [6usize, 24, 96] {
        println!("--- {gpus} GPUs ({} nodes) ---", gpus / 6);
        let mut series = Vec::new();
        for backend in Backend::all() {
            let profile = backend.profile();
            let pts = allreduce_sweep(&profile, &machine, gpus, &sizes);
            let mut s = Series::new(profile.name);
            for p in pts {
                s.push(p.bytes as f64, p.latency_us);
            }
            series.push(s);
        }
        print!("{}", render_columns("bytes", &series));

        // Headline ratio at the fused-buffer scale (64 MiB).
        let idx = sizes.iter().position(|&b| b == 64 << 20).expect("64 MiB in ladder");
        let spec = series[0].points[idx].1;
        let mv2 = series[1].points[idx].1;
        println!(
            "  at 64 MiB: Spectrum/MV2 latency ratio = {:.2}x (paper reports MV2-GDR clearly ahead)\n",
            spec / mv2
        );
    }
}
