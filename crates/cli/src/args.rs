//! The `ctup` command surface as data: the five subcommands and one flag
//! table. The same table drives parsing, per-command unknown-flag
//! rejection and the usage text, so the three cannot drift apart.

use std::collections::BTreeMap;
use std::fmt;

/// A `ctup` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Generate,
    Run,
    Serve,
    Feed,
    Trace,
}

impl Command {
    /// Every subcommand, in usage order.
    pub const ALL: [Command; 5] = [
        Command::Generate,
        Command::Run,
        Command::Serve,
        Command::Feed,
        Command::Trace,
    ];

    /// The name typed after `ctup`.
    pub fn name(self) -> &'static str {
        ["generate", "run", "serve", "feed", "trace"][self as usize]
    }

    /// The subcommand called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Command> {
        Command::ALL.into_iter().find(|c| c.name() == name)
    }

    fn about(self) -> &'static str {
        [
            "Generate a place set and save it as a snapshot.",
            "Monitor the seeded stream offline with the bare engine; print the final\n\
             top-k and the metrics snapshot.",
            "Open the networked ingest front door with /metrics and /healthz. --updates N\n\
             self-feeds over loopback, --state-dir journals for --recover, which\n\
             restarts from it after a death (--kill-at N dies before effective\n\
             update N).",
            "Feed the seeded stream to a running `serve` (same --units/--places/--seed),\n\
             redialing --addr on reconnect.",
            "Analyze a --span-dump file: per-stage latency and slowest critical paths.",
        ][self as usize]
    }
}

const GENERATE: u8 = 1 << Command::Generate as u8;
const RUN: u8 = 1 << Command::Run as u8;
const SERVE: u8 = 1 << Command::Serve as u8;
const FEED: u8 = 1 << Command::Feed as u8;
const TRACE: u8 = 1 << Command::Trace as u8;

/// One row of the flag table.
#[derive(Debug)]
struct Flag {
    /// The name, without the leading `--`.
    name: &'static str,
    /// The value's placeholder in the usage text; empty for a switch.
    value: &'static str,
    /// The commands that accept it.
    commands: u8,
}

const fn flag(name: &'static str, value: &'static str, commands: u8) -> Flag {
    Flag {
        name,
        value,
        commands,
    }
}

/// Every flag of every command, in usage order.
const FLAGS: &[Flag] = &[
    flag("algorithm", "opt|basic|naive|naive-inc", RUN),
    flag("updates", "N", RUN | SERVE | FEED),
    flag("units", "N", RUN | SERVE | FEED),
    flag("places", "N", GENERATE | RUN | SERVE | FEED),
    flag("places-file", "FILE", RUN),
    flag("granularity", "G", RUN | SERVE),
    flag("seed", "S", GENERATE | RUN | SERVE | FEED),
    flag("rp-min", "N", GENERATE),
    flag("rp-max", "N", GENERATE),
    flag("rp-skew", "F", GENERATE),
    flag("k", "K", RUN | SERVE),
    flag("delta", "D", RUN | SERVE),
    flag("radius", "R", RUN | SERVE),
    flag("no-doo", "", RUN | SERVE),
    flag("shards", "N", RUN),
    flag("cell-cache-pages", "M", RUN),
    flag("events", "", RUN),
    flag("format", "text|json|prom", RUN),
    flag("out", "FILE", GENERATE | RUN),
    flag("checkpoint-every", "N", SERVE),
    flag("state-dir", "DIR", SERVE),
    flag("kill-at", "N", SERVE),
    flag("recover", "", SERVE),
    flag("addr", "HOST:PORT", SERVE | FEED),
    flag("metrics-addr", "HOST:PORT", SERVE),
    flag("serve-secs", "N", SERVE),
    flag("queue-capacity", "N", SERVE),
    flag("session-quota", "N", SERVE),
    flag("ingest-deadline-ms", "N", SERVE),
    flag("snapshot-push-ms", "N", SERVE),
    flag("rate-hz", "F", FEED),
    flag("max-in-flight", "N", FEED),
    flag("max-attempts", "N", FEED),
    flag("deadline-secs", "N", FEED),
    flag("span-dump", "FILE", SERVE | FEED),
    flag("trace-every", "N", SERVE | FEED),
    flag("input", "FILE", TRACE),
    flag("slowest", "N", TRACE),
];

impl Flag {
    fn accepted_by(&self, command: Command) -> bool {
        self.commands & (1 << command as u8) != 0
    }

    /// `[--name VALUE]`, as the usage text shows it.
    fn synopsis(&self) -> String {
        match self.value {
            "" => format!("[--{}]", self.name),
            value => format!("[--{} {value}]", self.name),
        }
    }
}

/// The usage text of one command: its synopsis, wrapped, then its summary.
fn command_usage(command: Command) -> String {
    let mut text = String::new();
    let head = format!("  ctup {:<9}", command.name());
    let flags = FLAGS.iter().filter(|f| f.accepted_by(command));
    wrap(&mut text, &head, flags.map(Flag::synopsis));
    for line in command.about().lines() {
        text.push_str("      ");
        text.push_str(line);
        text.push('\n');
    }
    text
}

/// Writes `head` and then `items`, breaking lines before column 90 and
/// indenting continuations to line up under the first item.
fn wrap(text: &mut String, head: &str, items: impl Iterator<Item = String>) {
    let indent = head.chars().count();
    let mut line = head.to_string();
    for item in items {
        if line.chars().count() + 1 + item.len() > 90 && line.chars().count() > indent {
            text.push_str(&line);
            text.push('\n');
            line = " ".repeat(indent);
        }
        line.push(' ');
        line.push_str(&item);
    }
    text.push_str(&line);
    text.push('\n');
}

/// The `ctup help` text, generated from [`Command::ALL`] and [`FLAGS`].
pub fn usage() -> String {
    let mut text = String::from("ctup — Continuous Top-k Unsafe Places monitoring\n\nUSAGE:\n");
    for command in Command::ALL {
        text.push_str(&command_usage(command));
    }
    text
}

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("writing output: {e}"))
    }
}

/// The flags one command line gave, checked against the table.
#[derive(Debug)]
pub struct Flags {
    /// Name → value; a switch maps to the empty string.
    given: BTreeMap<&'static str, String>,
}

impl Flags {
    /// Parses `args` (without the program and subcommand names) against
    /// the table rows `command` accepts; any other flag is an error.
    pub fn parse<I: IntoIterator<Item = String>>(
        command: Command,
        args: I,
    ) -> Result<Flags, CliError> {
        let mut given = BTreeMap::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(CliError(format!("unexpected argument {arg:?}")));
            };
            let Some(flag) = FLAGS
                .iter()
                .find(|f| f.name == name && f.accepted_by(command))
            else {
                let command = command.name();
                return Err(CliError(format!(
                    "unknown flag --{name} for `ctup {command}`"
                )));
            };
            let value = match flag.value {
                "" => String::new(),
                _ => iter
                    .next()
                    .ok_or_else(|| CliError(format!("--{name} requires a value")))?,
            };
            given.insert(flag.name, value);
        }
        Ok(Flags { given })
    }

    /// Whether a switch (or any flag) was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// Typed flag value, if given.
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        let Some(raw) = self.given.get(name) else {
            return Ok(None);
        };
        raw.parse()
            .map(Some)
            .map_err(|e| CliError(format!("bad value {raw:?} for --{name}: {e}")))
    }

    /// Typed flag value with a default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: fmt::Display,
    {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// String flag value, if given.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.given.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(command: Command, args: &str) -> Result<Flags, CliError> {
        Flags::parse(command, args.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_values_and_switches() {
        let flags = parse(Command::Run, "--places 500 --events --seed 7").unwrap();
        assert_eq!(flags.get("places", 0u32).unwrap(), 500);
        assert_eq!(flags.get("seed", 0u64).unwrap(), 7);
        assert!(flags.switch("events"));
        assert!(!flags.switch("no-doo"));
        assert_eq!(flags.get("k", 42i64).unwrap(), 42);
        assert_eq!(flags.opt::<i64>("delta").unwrap(), None);
        let flags = parse(Command::Run, "--delta -3").unwrap();
        assert_eq!(flags.opt::<i64>("delta").unwrap(), Some(-3));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for case in [
            "run oops => unexpected argument \"oops\"",
            "run --seed => --seed requires a value",
            "run --seed abc => bad value \"abc\" for --seed: invalid digit found in string",
            // A flag of another command is as unknown as a made-up one.
            "run --bogus 1 => unknown flag --bogus for `ctup run`",
            "run --addr a => unknown flag --addr for `ctup run`",
            "feed --state-dir d => unknown flag --state-dir for `ctup feed`",
            "feed --granularity 9 => unknown flag --granularity for `ctup feed`",
            "generate --updates 5 => unknown flag --updates for `ctup generate`",
            "trace --seed 1 => unknown flag --seed for `ctup trace`",
        ] {
            let (line, message) = case.split_once(" => ").unwrap();
            let (name, args) = line.split_once(' ').unwrap();
            let command = Command::from_name(name).unwrap();
            let read_seed = parse(command, args).and_then(|f| f.get("seed", 0u64));
            assert_eq!(read_seed.unwrap_err().0, message, "{line}");
        }
    }

    #[test]
    fn usage_lists_the_five_commands_and_every_flag_they_take() {
        let text = usage();
        let listed: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("  ctup "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(listed, ["generate", "run", "serve", "feed", "trace"]);
        for command in Command::ALL {
            let own = command_usage(command);
            for flag in FLAGS {
                assert_eq!(
                    own.contains(&flag.synopsis()),
                    flag.accepted_by(command),
                    "--{} in `ctup {}` usage",
                    flag.name,
                    command.name()
                );
            }
            assert!(own.lines().all(|l| l.chars().count() <= 90), "{own}");
        }
    }
}
