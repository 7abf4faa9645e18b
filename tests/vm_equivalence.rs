//! Differential testing of the kernel bytecode VM against the kernel
//! interpreter: every corpus kernel program runs through
//! [`qbs_kernel::compile`]'s stack VM and [`qbs_kernel::run`]; the full
//! `RunResult` (final environment *and* result value) and any error must
//! be identical. (The plan VM has no twin; `tests/metamorphic.rs` checks
//! it against itself.)

use qbs_batch::{corpus_inputs, BatchConfig, BatchRunner};
use qbs_corpus::populate_universe;

/// Every corpus kernel program runs identically through the kernel
/// bytecode VM and the interpreter: same final environment, same result
/// value, same error if either fails — on three differently seeded
/// databases.
#[test]
fn corpus_kernels_agree_between_vm_and_interpreter() {
    let runner = BatchRunner::new(BatchConfig::new());
    let report = runner.run(&corpus_inputs());
    let mut compared = 0;
    for seed in [1, 2, 3] {
        let db = populate_universe(seed);
        for fr in &report.fragments {
            let Some(kernel) = &fr.kernel else { continue };
            compared += 1;
            let compiled = qbs_kernel::compile(kernel);
            let vm = compiled.run(db.env());
            let interp = qbs_kernel::run(kernel, db.env());
            assert_eq!(vm, interp, "{} (seed {seed}): kernel runs diverged", fr.input);
        }
    }
    assert!(compared >= 33 * 3, "every lowered corpus kernel compared, got {compared}");
}
