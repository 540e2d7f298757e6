//! Where experiment reports go: stdout, or a buffer while a test on the
//! same thread captures them.

use std::cell::RefCell;
use std::fmt;
use std::io::Write;

thread_local! {
    static CAPTURE: RefCell<Option<Vec<u8>>> = const { RefCell::new(None) };
}

/// `println!` for experiment reports (see [`print`]).
macro_rules! outln {
    () => {
        $crate::report::print(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::report::print(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Prints `args` like `print!`, into the capture if one is open on this
/// thread.
pub(crate) fn print(args: fmt::Arguments) {
    CAPTURE.with_borrow_mut(|capture| match capture {
        Some(buf) => buf.write_fmt(args).unwrap(),
        None => print!("{args}"),
    })
}

/// Runs `f` and returns what it printed on this thread.
#[cfg(test)]
pub(crate) fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<u8>) {
    let outer = CAPTURE.replace(Some(Vec::new()));
    let value = f();
    let printed = CAPTURE.replace(outer).unwrap_or_default();
    (value, printed)
}
