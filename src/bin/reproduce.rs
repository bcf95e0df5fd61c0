//! `reproduce` writes `REPRODUCTION.md`, the paper's Chapter 5 as this
//! repository measures it, to stdout:
//! `cargo run --release --bin reproduce > REPRODUCTION.md`.
//! It takes no arguments and reads no environment variable; everything the
//! report varies over is in `streamlin::paper::figures`.

use std::io::{self, Write};

use streamlin::paper::{write_exact, write_timing, Lab, MARKER};

fn main() {
    if std::env::args_os().len() > 1 {
        eprintln!("usage: reproduce > REPRODUCTION.md (it takes no arguments)");
        std::process::exit(2);
    }
    let (mut lab, mut out) = (Lab::default(), io::BufWriter::new(io::stdout().lock()));
    let written = write_exact(&mut lab, &mut out)
        .and_then(|()| writeln!(out, "{MARKER}\n"))
        .and_then(|()| write_timing(&mut lab, &mut out))
        .and_then(|()| out.flush());
    // A reader that has gone away (`reproduce | head -1`) has what it
    // wanted: a quiet exit 0, as from `streamlinc --quiet`.
    if let Some(e) = written
        .err()
        .filter(|e| e.kind() != io::ErrorKind::BrokenPipe)
    {
        eprintln!("reproduce: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}
