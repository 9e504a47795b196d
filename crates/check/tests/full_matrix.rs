//! The acceptance gate as a test: every check row of the registry must
//! verify clean. Mirrors `cargo run -p bruck-check --bin bruck-check`.

#[test]
fn full_matrix_is_clean() {
    let reports = bruck_check::matrix::run_full_matrix();
    let dirty: Vec<String> = reports
        .iter()
        .filter(|r| !r.is_clean())
        .map(|r| format!("{}: {:?}", r.name, r.findings))
        .collect();
    assert!(dirty.is_empty(), "matrix not clean:\n{}", dirty.join("\n"));
}
