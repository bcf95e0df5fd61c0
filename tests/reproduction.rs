//! `REPRODUCTION.md` is generated, and its exact half is an oracle.
//!
//! The half above [`MARKER`] (operation counts and graph structure for
//! every table and figure of the paper's Chapter 5) is regenerated here, in
//! a debug build, and compared byte for byte with the committed file; CI
//! does the same with a release build. Its first version was checked cell
//! by cell against the transcripts of the eleven `fig5_*`/`table5_2`
//! binaries it replaced (`CHANGES.md`, PR 19, lists the comparison), and
//! the anchors of that comparison are repeated below by name, so the file
//! cannot be regenerated into agreement with a changed optimizer. Like
//! `tests/golden/*`: never regenerate it to make a change pass; a diff here
//! is a change to extraction, combination or selection and is reviewed as
//! one.
//!
//! The three unit tests of the deleted `streamlin_bench` live on here:
//! `percentages` as [`percentages_are_the_papers_definitions`],
//! `table_renders_aligned` as [`tables_render_aligned`], and
//! `configs_produce_distinct_structures` as
//! [`configurations_produce_distinct_structures`].

use std::process::{Command, Stdio};
use std::sync::OnceLock;

use streamlin::core::Config;
use streamlin::paper::{
    figures, pct_removed, render_table, speedup_pct, write_exact, Build, Lab, Program, MARKER,
};

/// The exact half, generated once per test binary, with the lab's counters
/// after the first and after a second generation on the same lab.
fn generated() -> &'static (String, [usize; 2], String, [usize; 2]) {
    static GENERATED: OnceLock<(String, [usize; 2], String, [usize; 2])> = OnceLock::new();
    GENERATED.get_or_init(|| {
        let mut lab = Lab::default();
        let mut generate = || {
            let mut out = Vec::new();
            write_exact(&mut lab, &mut out).expect("writing to a Vec cannot fail");
            let text = String::from_utf8(out).expect("the report is UTF-8");
            (text, [lab.reads, lab.runs])
        };
        let (first, counters) = generate();
        let (second, again) = generate();
        (first, counters, second, again)
    })
}

fn exact() -> &'static str {
    &generated().0
}

/// The text of one cell, found by the id its table's heading starts with,
/// its row label and its column header.
fn cell<'a>(report: &'a str, id: &str, row: &str, column: &str) -> &'a str {
    let heading = format!("### {id}: ");
    let start = report
        .find(&heading)
        .unwrap_or_else(|| panic!("no table `{id}`"));
    let mut lines = report[start..].lines().filter(|l| l.starts_with('|'));
    let split = |line: &'a str| -> Vec<&'a str> { line.split('|').map(str::trim).collect() };
    let header = split(lines.next().expect("a header line"));
    let at = header
        .iter()
        .position(|h| *h == column)
        .unwrap_or_else(|| panic!("`{id}` has no column `{column}`: {header:?}"));
    let found = lines
        .map(split)
        .find(|cells| cells[1] == row)
        .unwrap_or_else(|| panic!("`{id}` has no row `{row}`"));
    found[at]
}

#[test]
fn the_exact_half_matches_the_committed_file() {
    let committed = include_str!("../REPRODUCTION.md");
    let (above, _) = committed
        .split_once(MARKER)
        .expect("REPRODUCTION.md has the marker line");
    let actual = exact();
    if actual != above {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("REPRODUCTION.actual.md");
        std::fs::write(&path, actual).expect("write the actual exact half");
        let line = actual
            .lines()
            .zip(above.lines())
            .position(|(a, c)| a != c)
            .unwrap_or_else(|| actual.lines().count().min(above.lines().count()));
        panic!(
            "the exact half differs from REPRODUCTION.md at line {}; actual written to {}",
            line + 1,
            path.display()
        );
    }
}

/// Two systems compute the suite means of Figures 5-1 and 5-2: this report
/// and the benchmark (`compile_suite.flops_removed_pct`, `mults_removed_pct`,
/// bounded at 0.1 % in `BENCHMARK.json`). The cells are pinned by name so
/// that a selection change fails here and there together, and the two
/// cannot drift apart silently. Since DToA got a static plan its counted
/// runs here stop on the plan's stepped order; the benchmark still counts
/// DToA on the data-driven engine, which fires upstream nodes eagerly, so
/// its 74.49 % and 78.63 % trail these cells until it plans DToA too. The
/// split-radix FFT moved the cells from 69.1 and 71.6 (the benchmark's
/// from 67.73 % and 70.37 %); the grid cut that lets TargetDetect's matched
/// filters share one transform from 74.4 and 78.7 (73.43 % and 78.03 %).
#[test]
fn autosel_averages_are_the_benchmarks_exact_counts() {
    let id = "Figures 5-1, 5-2 and 5-3";
    assert_eq!(cell(exact(), id, "AVERAGE", "5-1 autosel"), "75.5");
    assert_eq!(cell(exact(), id, "AVERAGE", "5-2 autosel"), "79.3");
}

/// The cells the first `REPRODUCTION.md` was compared on with the deleted
/// binaries' transcripts (measured at 4787acc). DToA's cell moved from
/// 63.6 when its counted runs moved from the data-driven engine to its
/// static plan; Figure 5-10's from 57.9 when the redundancy plan stopped
/// caching tuples that no term reads. The split-radix FFT moved every cell
/// with a frequency node: 5-1 FIR 76.1 → 83.3, RateConvert 88.2 → 91.6,
/// TargetDetect 60.3 → 72.0, FMRadio 84.7 → 86.7, FilterBank 77.9 → 83.9,
/// Vocoder 74.1 → 76.7, Oversampler 76.3 → 83.7, DToA 76.1 → 83.2, and
/// Figure 5-12's tuned 256-tap cell at N = 2048 from 8.16 to 15.09. The grid
/// cut moved TargetDetect's 5-1 cell from 72.0 to 81.5 (one frequency node
/// for its four matched filters) and Radar's filter count after selection
/// from 41 to 38 (its four `Beamform`s became one node).
#[test]
fn anchors_of_the_transferred_oracle() {
    let report = exact();
    let fig5_1 = [
        ("FIR", "83.3"),
        ("RateConvert", "91.6"),
        ("TargetDetect", "81.5"),
        ("FMRadio", "86.7"),
        ("Radar", "8.4"),
        ("FilterBank", "83.9"),
        ("Vocoder", "76.7"),
        ("Oversampler", "83.7"),
        ("DToA", "83.2"),
    ];
    for (bench, removed) in fig5_1 {
        let found = cell(report, "Figures 5-1, 5-2 and 5-3", bench, "5-1 autosel");
        assert_eq!(found, removed, "{bench}");
    }
    for (column, value) in [
        ("filters", "53"),
        ("linear", "32"),
        ("after: filters", "38"),
    ] {
        assert_eq!(
            cell(report, "Table 5-2", "Radar", column),
            value,
            "{column}"
        );
    }
    assert_eq!(
        cell(report, "Figure 5-10", "128", "mults% remaining"),
        "46.7"
    );
    assert_eq!(
        cell(report, "Figure 5-11", "12 × 8", "mult% removed"),
        "-322.3"
    );
    let tuned = "optimized, tuned FFT: 256";
    assert_eq!(cell(report, "Figure 5-12", tuned, "2048"), "15.09");
}

#[test]
fn every_figure_the_old_binaries_covered_is_present() {
    let ids: Vec<&str> = figures(&mut Lab::default()).iter().map(|f| f.id).collect();
    let ids = ids.join("; ");
    let covered = [
        "Table 5-2",
        "5-1",
        "5-2",
        "5-3",
        "5-4",
        "5-5",
        "5-6",
        "5-8",
        "5-9",
        "5-10",
        "5-11",
        "5-12",
    ];
    for id in covered {
        assert!(ids.contains(id), "no figure {id} among: {ids}");
    }
    // Every exact table carries the paper's claim and a computed verdict.
    let tables = exact().matches("\n### ").count();
    assert_eq!(exact().matches("\n- Paper: ").count(), tables);
    assert_eq!(exact().matches("\n- Verdict: ").count(), tables);
}

/// Each distinct run happens once however many columns read it, and a
/// second generation on the same lab reads everything from the table and
/// writes the same bytes.
#[test]
fn measurements_are_memoised_and_generation_is_repeatable() {
    let (first, [reads, runs], second, [reads_again, runs_again]) = generated();
    assert!(runs < reads, "{runs} runs served {reads} reads");
    assert_eq!(runs_again, runs, "a second generation ran something");
    assert_eq!(*reads_again, 2 * reads);
    // The counters are printed, so the second text differs in that one line.
    let body = |text: &'static str| text.rsplit_once("The tables above read").map(|(b, _)| b);
    assert!(body(first).is_some());
    assert_eq!(body(first), body(second));
}

#[test]
fn percentages_are_the_papers_definitions() {
    assert_eq!(pct_removed(100.0, 14.0), 86.0);
    assert!(pct_removed(100.0, 130.0) < 0.0);
    assert_eq!(speedup_pct(10.0, 2.0), 400.0);
}

#[test]
fn tables_render_aligned() {
    let text = |cells: &[&str]| cells.iter().map(|c| c.to_string()).collect::<Vec<_>>();
    let rows = [text(&["a", "1.0"]), text(&["long-name", "-2.5"])];
    let table = render_table(&text(&["name", "value"]), &rows);
    let lines: Vec<&str> = table.lines().collect();
    assert_eq!(lines.len(), 4, "{table}");
    let width = lines[0].chars().count();
    assert!(lines.iter().all(|l| l.chars().count() == width), "{table}");
    assert_eq!(lines[1], "| :-------- | ----: |");
    assert_eq!(lines[3], "| long-name |  -2.5 |");
}

#[test]
fn configurations_produce_distinct_structures() {
    let mut lab = Lab::default();
    let fir = Program::Fir(64);
    let mut stats = |build: Build| lab.stream(fir, build).stats();
    let baseline = stats(Build::Named(Config::Baseline));
    assert_eq!((baseline.linear, baseline.freq), (1, 0));
    let linear = stats(Build::Named(Config::Linear));
    assert_eq!((linear.linear, linear.freq), (1, 0));
    assert_eq!(stats(Build::Named(Config::Freq)).freq, 1);
    // Figure 5-4's "freq(nc)" on a single linear filter is "freq" itself.
    assert_eq!(stats(Build::FreqNoCombine).freq, 1);
}

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

/// The `reproduce | head -1` shape: the reader is gone before the report is
/// written. Exit 0 and nothing on stderr (every `fig5_*` binary panicked
/// with exit 101 here).
#[test]
fn a_closed_stdout_pipe_is_a_quiet_exit() {
    let mut child = reproduce()
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take()); // close the read end, as an exited `head` does
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(stderr, "");
}

#[test]
fn reproduce_takes_no_arguments() {
    let out = reproduce().arg("0.1").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("takes no arguments"));
}
