//! The bench binaries' one command line.
//!
//! Every binary that `scripts/reproduce_all.sh` runs, and `perf_smoke`,
//! calls [`Cli::parse`] first, with the flags it declares; `fmoe_sim`
//! calls [`Cli::parse_command`] with its subcommands, each declaring its
//! own flags. Every binary and subcommand also takes `--quick` (its small
//! sweep, written under `results/quick/`; see
//! [`crate::report::results_dir`]) and `--help`. An unknown subcommand,
//! an unknown argument, a missing value or a malformed one prints the
//! usage to stderr and exits with status 2, before anything runs or is
//! written.

use std::collections::BTreeMap;

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// A positive integer, as `--name N` or `--name=N`.
    Count,
    /// Any text, shown in the usage as the given placeholder
    /// (`--file PATH`).
    Text(&'static str),
}

/// One flag a binary declares besides `--quick` and `--help`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag, its leading `--` included.
    pub name: &'static str,
    /// What follows the flag.
    pub takes: Takes,
    /// One line of the usage text.
    pub help: &'static str,
}

impl Flag {
    /// A switch: given or not.
    #[must_use]
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            takes: Takes::Nothing,
            help,
        }
    }

    /// A flag that takes a positive integer.
    #[must_use]
    pub const fn value(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            takes: Takes::Count,
            help,
        }
    }

    /// A flag that takes text, shown as `placeholder` in the usage; the
    /// binary reads it with [`Cli::text`] and checks it itself.
    #[must_use]
    pub const fn text(name: &'static str, placeholder: &'static str, help: &'static str) -> Self {
        Self {
            name,
            takes: Takes::Text(placeholder),
            help,
        }
    }

    /// The flag as the usage shows it: `--name`, `--name N` or
    /// `--name PLACEHOLDER`.
    fn shown(&self) -> String {
        match self.takes {
            Takes::Nothing => self.name.to_string(),
            Takes::Count => format!("{} N", self.name),
            Takes::Text(placeholder) => format!("{} {placeholder}", self.name),
        }
    }
}

/// One subcommand of a binary that takes them, as in
/// `fmoe_sim serve --model phi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// The word that selects it.
    pub name: &'static str,
    /// One line of the usage text.
    pub help: &'static str,
    /// The flags it declares besides `--quick` and `--help`.
    pub flags: &'static [Flag],
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
    /// The declared flags given: a switch maps to `None`, any other flag
    /// to its value, already checked against what the flag takes.
    given: BTreeMap<&'static str, Option<String>>,
}

/// What a command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed<T = Cli> {
    /// Run with these flags.
    Run(T),
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

    /// Parses the process's arguments as one of `commands` followed by
    /// its flags, printing the usage and exiting as [`Cli::parse`] does.
    #[must_use]
    pub fn parse_command(commands: &[Command]) -> (Command, Self) {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let args: Vec<String> = args.collect();
        match Self::try_parse_command(commands, &args) {
            Ok(Parsed::Run(parsed)) => parsed,
            Ok(Parsed::Help) => {
                print!("{}", command_usage(&program, commands));
                std::process::exit(0)
            }
            Err(e) => refuse(commands, &e),
        }
    }

    /// Parses `args` (without the program name) as a subcommand word from
    /// `commands` followed by that subcommand's flags. `--help` alone, or
    /// after the word, asks for the usage.
    ///
    /// # Errors
    ///
    /// A message naming a missing or unknown subcommand, or whatever
    /// [`Cli::try_parse`] rejects in its flags.
    pub fn try_parse_command(
        commands: &[Command],
        args: &[String],
    ) -> Result<Parsed<(Command, Self)>, String> {
        let (word, rest) = args.split_first().ok_or("missing command")?;
        if word == HELP.name {
            return Ok(Parsed::Help);
        }
        let command = commands
            .iter()
            .find(|c| c.name == word)
            .ok_or_else(|| format!("unknown command `{word}`"))?;
        Ok(match Self::try_parse(command.flags, rest)? {
            Parsed::Run(cli) => Parsed::Run((*command, cli)),
            Parsed::Help => Parsed::Help,
        })
    }

    /// Parses `args` (without the program name) against `flags`,
    /// `--quick` and `--help`.
    ///
    /// # Errors
    ///
    /// A message naming the first argument that is not a known flag, a
    /// flag without the value it takes, a count flag whose value is not a
    /// positive integer, or a switch given a value.
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
            let value = if flag.takes == Takes::Nothing {
                if inline.is_some() {
                    return Err(format!("`{name}` takes no value"));
                }
                None
            } else {
                let text = inline
                    .or_else(|| args.next().map(String::as_str))
                    .filter(|text| !text.starts_with("--"))
                    .ok_or_else(|| format!("`{name}` needs a value"))?;
                if flag.takes == Takes::Count && positive(text).is_none() {
                    return Err(format!("`{name}` takes a positive integer, not `{text}`"));
                }
                Some(text.to_string())
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

    /// The value of the declared count flag `flag`, if given.
    #[must_use]
    pub fn value(&self, flag: Flag) -> Option<usize> {
        self.text(flag).and_then(positive)
    }

    /// The text given to the declared flag `flag`, if given.
    #[must_use]
    pub fn text(&self, flag: Flag) -> Option<&str> {
        self.given.get(flag.name)?.as_deref()
    }

    /// `--jobs N`, or the machine's available parallelism without it.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.value(JOBS)
            .unwrap_or_else(crate::harness::ParallelRunner::available_parallelism)
    }
}

/// `text` as a positive integer.
fn positive(text: &str) -> Option<usize> {
    text.parse::<usize>().ok().filter(|&n| n > 0)
}

/// Prints `message` and the usage of the running binary's `commands` to
/// stderr and exits with status 2: for a command line whose words parse
/// but whose values the binary cannot use (an unknown model name).
pub fn refuse(commands: &[Command], message: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    eprint!("error: {message}\n\n{}", command_usage(&program, commands));
    std::process::exit(2)
}

/// The flag lines of a usage text, with `--quick` first and `--help`
/// last, indented by `indent`.
fn flag_lines(flags: &[Flag], indent: &str) -> (Vec<Flag>, String) {
    let all: Vec<Flag> = [QUICK]
        .into_iter()
        .chain(flags.iter().copied())
        .chain([HELP])
        .collect();
    let width = all.iter().map(|f| f.shown().len()).max().unwrap_or(0);
    let mut text = String::new();
    for f in &all {
        text += &format!("{indent}{:<width$}  {}\n", f.shown(), f.help);
    }
    (all, text)
}

/// The usage text of `program` with the declared `flags`.
#[must_use]
pub fn usage(program: &str, flags: &[Flag]) -> String {
    let (all, lines) = flag_lines(flags, "  ");
    let synopsis: Vec<String> = all.iter().map(|f| format!("[{}]", f.shown())).collect();
    format!("usage: {program} {}\n\n{lines}", synopsis.join(" "))
}

/// The usage text of `program` with the subcommands `commands`, each
/// followed by its flags.
#[must_use]
pub fn command_usage(program: &str, commands: &[Command]) -> String {
    let names: Vec<&str> = commands.iter().map(|c| c.name).collect();
    let mut text = format!("usage: {program} <{}> [flags]\n", names.join("|"));
    for c in commands {
        text += &format!("\n{}: {}\n{}", c.name, c.help, flag_lines(c.flags, "  ").1);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: Flag = Flag::value("--seeds", "router seeds");
    const HEATMAP: Flag = Flag::switch("--heatmap", "print the heatmap");
    const MODEL: Flag = Flag::text("--model", "NAME", "the model");
    const COMMANDS: &[Command] = &[
        Command {
            name: "list",
            help: "list the names",
            flags: &[],
        },
        Command {
            name: "serve",
            help: "serve a workload",
            flags: &[MODEL, SEEDS, HEATMAP],
        },
    ];

    fn parse_command(args: &[&str]) -> Result<Parsed<(Command, Cli)>, String> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        Cli::try_parse_command(COMMANDS, &args)
    }

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

    #[test]
    fn subcommands_parse_their_own_flags() {
        let Ok(Parsed::Run((command, cli))) =
            parse_command(&["serve", "--model", "phi", "--seeds=2", "--quick"])
        else {
            panic!("serve did not parse");
        };
        assert_eq!(command.name, "serve");
        assert!(cli.quick && !cli.has(HEATMAP));
        assert_eq!((cli.text(MODEL), cli.value(SEEDS)), (Some("phi"), Some(2)));
        assert_eq!(cli.value(MODEL), None, "text is not a count");
        let Ok(Parsed::Run((command, cli))) = parse_command(&["list"]) else {
            panic!("list did not parse");
        };
        assert_eq!((command.name, cli), ("list", Cli::default()));
        for args in [
            &["--help"][..],
            &["list", "--help"],
            &["serve", "--model=x", "--help"],
        ] {
            assert_eq!(parse_command(args), Ok(Parsed::Help), "{args:?}");
        }
    }

    #[test]
    fn unknown_commands_flags_or_values_are_errors() {
        for args in [
            &[][..],
            &["bogus"],
            &["--model", "phi"],
            &["list", "--no-such-flag"],
            &["list", "--model", "phi"],
            &["serve", "--no-such-flag"],
            &["serve", "--model"],
            &["serve", "--model", "--heatmap"],
            &["serve", "--seeds", "two"],
            &["serve", "--heatmap=yes"],
            &["serve", "phi"],
        ] {
            assert!(parse_command(args).is_err(), "{args:?} was accepted");
        }
    }

    #[test]
    fn command_usage_lists_every_command_and_flag() {
        let text = command_usage("fmoe_sim", COMMANDS);
        assert!(
            text.starts_with("usage: fmoe_sim <list|serve> [flags]\n"),
            "{text}"
        );
        for needle in [
            "list: list the names",
            "serve: serve a workload",
            "--model NAME",
            "--seeds N",
            "--heatmap",
            "--quick",
            "--help",
        ] {
            assert!(text.contains(needle), "{needle} missing from:\n{text}");
        }
    }
}
