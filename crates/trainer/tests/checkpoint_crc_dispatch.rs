//! A checkpoint's CRC tail must not depend on which CRC kernel wrote
//! it: save with CPU dispatch active (PCLMULQDQ folding where the host
//! has it), force the portable slice-by-16 twin, then load. The switch
//! is irreversible for the process, hence a test binary of its own.

use trainer::real::Checkpoint;

#[test]
fn checkpoint_saved_with_dispatch_loads_forced_scalar() {
    let dir = std::env::temp_dir().join(format!("summit-ckpt-crc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("ck.bin");
    let saved = Checkpoint {
        step: 41,
        live: vec![0, 2, 3],
        opt_step: 41,
        params: (0..5_000).map(|i| (i as f32 * 0.013).sin()).collect(),
        velocity: (0..5_000).map(|i| (i as f32) * -0.25).collect(),
    };
    saved.save(&path).expect("save with dispatch active");

    simd::force_scalar_for_testing();
    assert!(!simd::have_pclmul());
    let loaded = Checkpoint::load(&path).expect("load with the scalar twin");
    assert_eq!(loaded, saved);

    // And the other direction of the same claim: what the scalar twin
    // writes is byte-for-byte what the dispatched kernel wrote.
    let again = dir.join("ck2.bin");
    saved.save(&again).expect("save with the scalar twin");
    assert_eq!(std::fs::read(&again).expect("read"), std::fs::read(&path).expect("read"));
    let _ = std::fs::remove_dir_all(&dir);
}
