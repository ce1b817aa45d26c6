//! `augem-gen --checkpoint F --resume` on a journal of another run: a
//! header naming another schema, kernel or machine is refused before
//! tuning, with exit status 2, both headers on stderr and F untouched.
//! A journal whose header matches resumes and exits 0.

use augem::machine::MachineSpec;
use augem::resil::journal_header;
use augem::{Augem, DlaKernel};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("augem-gen-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn resume(kernel: &str, machine: &str, journal: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_augem-gen"))
        .args(["--kernel", kernel, "--machine", machine, "--checkpoint"])
        .arg(journal)
        .args(["--resume", "-o"])
        .arg(journal.with_extension("s"))
        .stdin(Stdio::null())
        .output()
        .expect("augem-gen runs")
}

#[test]
fn a_journal_of_another_run_is_refused_before_tuning() {
    let dir = tmpdir("foreign");
    let v1 = r#"{"schema":"augem.tune-journal/v1","kernel":"daxpy","machine":"sandybridge"}"#;
    let v2_daxpy_snb = journal_header("daxpy", "sandybridge").render();
    let (snb, pd) = (MachineSpec::sandy_bridge(), MachineSpec::piledriver());
    // A v1 checkpoint resumed for either kernel, and a current one
    // resumed on another machine.
    let cases = [
        (v1, "axpy", DlaKernel::Axpy, &snb),
        (v1, "gemm", DlaKernel::Gemm, &snb),
        (&v2_daxpy_snb, "axpy", DlaKernel::Axpy, &pd),
    ];
    for (i, (found, kernel, dla, spec)) in cases.into_iter().enumerate() {
        let machine = spec.arch.short_name();
        let journal = dir.join(format!("j{i}.jsonl"));
        let bytes = format!("{found}\n");
        std::fs::write(&journal, &bytes).unwrap();
        let out = resume(kernel, machine, &journal);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("--kernel {kernel} --machine {machine} on {found}");
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        let expected = Augem::new(spec.clone()).checkpoint_header(dla).render();
        assert!(
            stderr.contains(found),
            "{case}: found header not named: {stderr}"
        );
        assert!(
            stderr.contains(&expected),
            "{case}: expected header not named: {stderr}"
        );
        assert_eq!(
            std::fs::read_to_string(&journal).unwrap(),
            bytes,
            "{case}: journal changed"
        );
        assert!(out.stdout.is_empty(), "{case}: nothing is shipped");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_of_the_same_run_resumes() {
    let dir = tmpdir("same");
    let journal = dir.join("daxpy.jsonl");
    let header = journal_header("daxpy", "sandybridge").render();
    std::fs::write(&journal, format!("{header}\n")).unwrap();
    let out = resume("axpy", "sandybridge", &journal);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let lines = std::fs::read_to_string(&journal).unwrap();
    assert!(lines.starts_with(&header), "{lines}");
    assert!(
        lines.lines().count() > 1,
        "the resumed sweep journals its decisions"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
