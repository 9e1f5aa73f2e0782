//! Benchmark harness regenerating every figure of the paper's
//! evaluation (§5.3). Each `fig*` binary prints the series the paper
//! plots and writes machine-readable JSON under `results/`.
//!
//! | Figure | Runner | Paper series |
//! |--------|--------|--------------|
//! | 6 | [`run_fig6`] | two-way random / two-way best-case / three-way scalability |
//! | 7 | [`run_fig7`] | matching time vs DB time as postconditions grow 1..5 |
//! | 8 | [`run_fig8`] | no-unification / usual partitions / giant cluster (incr. vs set-at-a-time) |
//! | 9 | [`run_fig9`] | safety-check overhead against 20k resident queries |
//!
//! The benches under `benches/` time the same four workloads at reduced
//! scale, plus two ablations (atom index vs pairwise edge discovery,
//! safe matching vs brute-force search). Everything beyond the paper's
//! figures — churn, the sharded service, giant components, paging,
//! durability — is measured by the repository's benchmark
//! (`BENCHMARK.json`, `benchmark/run.sh`), not here.
//!
//! Absolute numbers differ from the paper (different hardware, MySQL →
//! in-memory substrate); the claims under reproduction are the *shapes*
//! (linearity, who is faster, where evaluation blows up).

#![forbid(unsafe_code)]

pub mod harness;
mod runner;

pub use harness::BenchGroup;
pub use runner::{
    clone_db, instrumented_batch, pairwise_edges, run_fig6, run_fig7, run_fig8, run_fig9,
    standard_graph, Fig6Config, Fig8Config, Fig9Config, Row, SplitTiming,
};

use std::io::Write as _;
use std::path::Path;

/// Prints rows as an aligned table and writes them as JSON.
pub fn report(figure: &str, rows: &[Row], json_path: Option<&Path>) {
    println!("== {figure} ==");
    println!(
        "{:<28} {:>10} {:>14} {:>12}",
        "series", "x", "millis", "extra"
    );
    for r in rows {
        println!(
            "{:<28} {:>10} {:>14.2} {:>12}",
            r.series,
            r.x,
            r.millis,
            r.extra
                .map(|e| format!("{e:.2}"))
                .unwrap_or_else(|| "-".to_owned())
        );
    }
    if let Some(path) = json_path {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::File::create(path) {
            Ok(mut f) => {
                let _ = f.write_all(rows_to_json(rows).as_bytes());
                println!("(wrote {})", path.display());
            }
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// Serializes rows as a JSON array (hand-rolled: the offline-dependency
/// policy rules out serde, and `Row` is flat).
pub fn rows_to_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"figure\": \"{}\", \"series\": \"{}\", \"x\": {}, \"millis\": {}, \
             \"extra\": {}",
            json_escape(r.figure),
            json_escape(&r.series),
            r.x,
            json_number(r.millis),
            r.extra.map_or_else(|| "null".to_owned(), json_number),
        ));
        out.push('}');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned() // JSON has no NaN/Infinity
    }
}

/// Parses the operand of `--sizes`: comma-separated query counts, e.g.
/// `5,100,1000` (blanks around a count are allowed). The error names
/// the token that is not a count.
pub fn parse_sizes(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .map(|token| {
            token
                .trim()
                .parse()
                .map_err(|_| format!("{token:?} is not a query count"))
        })
        .collect()
}

/// Reads `--sizes 5,100,1000` from the fig binaries' command line;
/// returns `default` when the switch is absent. A missing or malformed
/// operand is a usage error (exit status 2), never a silent fallback to
/// the paper-scale default sweep.
pub fn sizes_from_args(default: &[usize]) -> Vec<usize> {
    let mut args = std::env::args().skip_while(|a| a != "--sizes");
    if args.next().is_none() {
        return default.to_vec();
    }
    let parsed = match args.next() {
        Some(spec) => parse_sizes(&spec),
        None => Err("missing operand".to_owned()),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("usage: --sizes N[,N...] (e.g. --sizes 5,200): {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::parse_sizes;

    #[test]
    fn sizes_parse_or_name_the_bad_token() {
        assert_eq!(parse_sizes("5,200"), Ok(vec![5, 200]));
        assert_eq!(parse_sizes("5, 200 "), Ok(vec![5, 200]));
        assert!(parse_sizes("5,,200").unwrap_err().contains("\"\""));
        assert!(parse_sizes("1e3").unwrap_err().contains("\"1e3\""));
        assert!(parse_sizes("").unwrap_err().contains("\"\""));
    }
}
