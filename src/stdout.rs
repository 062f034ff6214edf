//! Standard output that outlives its reader: `optirec … | head -1` ends
//! quietly instead of panicking in `println!`.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write found the reader gone.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Write `args` to standard output. Once a write fails with
/// [`io::ErrorKind::BrokenPipe`] this and every later call drops its output;
/// the run goes on, so its journal is still written and its exit code is
/// unchanged. Any other failure panics, as `print!` does.
pub fn write(args: fmt::Arguments<'_>) {
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => CLOSED.store(true, Ordering::Relaxed),
        Err(e) => panic!("failed printing to stdout: {e}"),
        Ok(()) => {}
    }
}

/// `print!` through [`stdout::write`](crate::stdout::write).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout::write(format_args!($($arg)*))
    };
}

/// `println!` through [`stdout::write`](crate::stdout::write).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::stdout::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdout::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
