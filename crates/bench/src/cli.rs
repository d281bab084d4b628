//! The bench binaries' one command line.
//!
//! Every binary that `scripts/reproduce_all.sh` runs, and `perf_smoke`,
//! calls [`Cli::parse`] first, with the flags it declares. Every binary
//! also takes `--quick` (its small sweep, written under `results/quick/`;
//! see [`crate::report::results_dir`]) and `--help`. An unknown argument,
//! a missing value or a value that is not a positive integer prints the
//! usage to stderr and exits with status 2, before anything runs or is
//! written.

use std::collections::BTreeMap;

/// One flag a binary declares besides `--quick` and `--help`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag, its leading `--` included.
    pub name: &'static str,
    /// `true` when the flag takes a positive integer, as `--name N` or
    /// `--name=N`.
    pub takes_value: bool,
    /// One line of the usage text.
    pub help: &'static str,
}

impl Flag {
    /// A switch: given or not.
    #[must_use]
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            takes_value: false,
            help,
        }
    }

    /// A flag that takes a positive integer.
    #[must_use]
    pub const fn value(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            takes_value: true,
            help,
        }
    }
}

/// `--jobs N`: the worker threads of a sweep (see
/// [`crate::harness::ParallelRunner::from_cli`]).
pub const JOBS: Flag = Flag::value(
    "--jobs",
    "worker threads for the sweep (default: the machine's available parallelism)",
);

/// `--trace`: also run one traced cell and export its trace.
pub const TRACE: Flag = Flag::switch(
    "--trace",
    "also run one traced cell and write its trace, phases and counters",
);

const QUICK: Flag = Flag::switch(
    "--quick",
    "run the small sweep and write under results/quick/",
);

const HELP: Flag = Flag::switch("--help", "print this help and exit");

/// A parsed command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cli {
    /// `--quick` was given.
    pub quick: bool,
    /// The declared flags given: a switch maps to `None`, a value flag
    /// to its value.
    given: BTreeMap<&'static str, Option<usize>>,
}

/// What a command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Run with these flags.
    Run(Cli),
    /// Print the usage and exit (`--help`).
    Help,
}

impl Cli {
    /// Parses the process's arguments against `flags`. Prints the usage
    /// and exits: with status 0 on `--help`, with status 2 (the usage on
    /// stderr, after the error) on an argument [`Cli::try_parse`]
    /// rejects.
    #[must_use]
    pub fn parse(flags: &[Flag]) -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let args: Vec<String> = args.collect();
        match Self::try_parse(flags, &args) {
            Ok(Parsed::Run(cli)) => cli,
            Ok(Parsed::Help) => {
                print!("{}", usage(&program, flags));
                std::process::exit(0)
            }
            Err(e) => {
                eprint!("error: {e}\n\n{}", usage(&program, flags));
                std::process::exit(2)
            }
        }
    }

    /// Parses `args` (without the program name) against `flags`,
    /// `--quick` and `--help`.
    ///
    /// # Errors
    ///
    /// A message naming the first argument that is not a known flag,
    /// a value flag without a positive integer, or a switch given a
    /// value.
    pub fn try_parse(flags: &[Flag], args: &[String]) -> Result<Parsed, String> {
        let mut cli = Self::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let flag = [QUICK, HELP]
                .iter()
                .chain(flags)
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown argument `{arg}`"))?;
            let value = if flag.takes_value {
                let text = inline
                    .or_else(|| args.next().map(String::as_str))
                    .ok_or_else(|| format!("`{name}` needs a value"))?;
                let n = text
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("`{name}` takes a positive integer, not `{text}`"))?;
                Some(n)
            } else if inline.is_some() {
                return Err(format!("`{name}` takes no value"));
            } else {
                None
            };
            match flag.name {
                "--help" => return Ok(Parsed::Help),
                "--quick" => cli.quick = true,
                _ => {
                    cli.given.insert(flag.name, value);
                }
            }
        }
        Ok(Parsed::Run(cli))
    }

    /// `true` when the declared switch `flag` was given.
    #[must_use]
    pub fn has(&self, flag: Flag) -> bool {
        self.given.contains_key(flag.name)
    }

    /// The value of the declared value flag `flag`, if given.
    #[must_use]
    pub fn value(&self, flag: Flag) -> Option<usize> {
        self.given.get(flag.name).copied().flatten()
    }

    /// `--jobs N`, or the machine's available parallelism without it.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.value(JOBS)
            .unwrap_or_else(crate::harness::ParallelRunner::available_parallelism)
    }
}

/// The usage text of `program` with the declared `flags`.
#[must_use]
pub fn usage(program: &str, flags: &[Flag]) -> String {
    let all: Vec<Flag> = [QUICK]
        .into_iter()
        .chain(flags.iter().copied())
        .chain([HELP])
        .collect();
    let shown = |f: &Flag| {
        if f.takes_value {
            format!("{} N", f.name)
        } else {
            f.name.to_string()
        }
    };
    let synopsis: Vec<String> = all.iter().map(|f| format!("[{}]", shown(f))).collect();
    let width = all.iter().map(|f| shown(f).len()).max().unwrap_or(0);
    let mut text = format!("usage: {program} {}\n\n", synopsis.join(" "));
    for f in &all {
        text += &format!("  {:<width$}  {}\n", shown(f), f.help);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: Flag = Flag::value("--seeds", "router seeds");
    const HEATMAP: Flag = Flag::switch("--heatmap", "print the heatmap");

    fn parse(flags: &[Flag], args: &[&str]) -> Result<Parsed, String> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        Cli::try_parse(flags, &args)
    }

    fn run(flags: &[Flag], args: &[&str]) -> Cli {
        match parse(flags, args) {
            Ok(Parsed::Run(cli)) => cli,
            other => panic!("{args:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn declared_flags_parse() {
        let cli = run(&[JOBS, TRACE], &["--quick", "--jobs=6", "--trace"]);
        assert!(cli.quick && cli.has(TRACE));
        assert_eq!(cli.value(JOBS), Some(6));
        assert_eq!(cli.jobs(), 6);
        let cli = run(&[JOBS, SEEDS, HEATMAP], &["--jobs", "3", "--seeds", "2"]);
        assert!(!cli.quick && !cli.has(HEATMAP));
        assert_eq!((cli.jobs(), cli.value(SEEDS)), (3, Some(2)));
        // Without `--jobs`, the machine's parallelism.
        assert!(run(&[JOBS], &[]).jobs() >= 1);
        assert_eq!(
            run(&[], &["--quick"]),
            Cli {
                quick: true,
                ..Cli::default()
            }
        );
    }

    #[test]
    fn unknown_missing_or_malformed_arguments_are_errors() {
        let flags = [JOBS, HEATMAP];
        for args in [
            &["--no-such-flag"][..],
            &["--list"],
            &["--quik"],
            &["positional"],
            &["--trace"],
            &["--jobs"],
            &["--jobs", "x"],
            &["--jobs=x"],
            &["--jobs", "0"],
            &["--jobs", "-1"],
            &["--jobs", "--quick"],
            &["--heatmap=1"],
            &["--quick=yes"],
            &["--quick", "--jobs", "2", "extra"],
        ] {
            assert!(parse(&flags, args).is_err(), "{args:?} was accepted");
        }
    }

    #[test]
    fn help_wins_unless_an_earlier_argument_is_bad() {
        assert_eq!(parse(&[], &["--quick", "--help"]), Ok(Parsed::Help));
        assert!(parse(&[], &["--bad", "--help"]).is_err());
    }

    #[test]
    fn usage_lists_every_flag() {
        let text = usage("fig9_overall", &[JOBS, TRACE]);
        assert!(text.starts_with("usage: fig9_overall [--quick] [--jobs N] [--trace] [--help]\n"));
        for needle in ["--quick", "--jobs N", "--trace", "--help", JOBS.help] {
            assert!(text.contains(needle), "{needle} missing from:\n{text}");
        }
    }
}
