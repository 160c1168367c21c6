//! The command lines of the figure binaries.
//!
//! A figure binary takes no argument, or one: a positive count (requests
//! per cell, or a horizon scale), or the `--long` flag. It checks its
//! command line before any work; anything it does not take prints its
//! usage text and exits with status 2, so a bad argument never starts a
//! run or overwrites a CSV under `results/`.

use std::process::exit;

/// The positive count `what` (such as `REQUESTS`) that is binary `bin`'s
/// only argument, or `default` without one. A count that is not a
/// positive integer, or any further argument, prints the usage text and
/// exits with status 2.
pub fn count_arg(bin: &str, what: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let count = match &args[..] {
        [] => Ok(default),
        [count] => match count.parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{what} must be a positive integer, got {count:?}")),
        },
        [_, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    };
    count.unwrap_or_else(|err| usage_error(&err, &format!("{bin} [{what}]")))
}

/// Whether `--long`, binary `bin`'s only accepted argument, was passed.
/// Any other argument prints the usage text and exits with status 2.
pub fn long_flag(bin: &str) -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match &args[..] {
        [] => false,
        [flag] if flag == "--long" => true,
        _ => usage_error(
            &format!("unexpected arguments {args:?}"),
            &format!("{bin} [--long]"),
        ),
    }
}

/// Checks that binary `bin`, which takes no argument, got none. Any
/// argument prints the usage text and exits with status 2.
pub fn no_args(bin: &str) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        usage_error(&format!("unexpected arguments {args:?}"), bin);
    }
}

fn usage_error(err: &str, usage: &str) -> ! {
    eprintln!("{err}\nusage: {usage}");
    exit(2)
}
