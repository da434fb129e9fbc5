//! Declarative subcommand tables and the `--key value` / `--switch`
//! parser they drive (no dependencies).
//!
//! Each subcommand is one [`Command`]: its name, its prose and its
//! [`Flag`]s. The table is the only source of the help text
//! ([`Command::help`]), of what [`Options::parse`] accepts, and of the
//! keys a handler may read: in debug builds every accessor asserts that
//! its key is declared for the command.

use std::collections::HashMap;

/// One flag of a subcommand.
#[derive(Debug)]
pub struct Flag {
    /// The name without its leading `--`.
    pub name: &'static str,
    /// The value placeholder shown in help (e.g. `<N>`), or `None` for a
    /// switch.
    pub value: Option<&'static str>,
}

/// A flag that takes a value, shown as `<placeholder>` in help.
pub const fn value(name: &'static str, placeholder: &'static str) -> Flag {
    Flag {
        name,
        value: Some(placeholder),
    }
}

/// A flag that takes no value.
pub const fn switch(name: &'static str) -> Flag {
    Flag { name, value: None }
}

/// One subcommand: its name, its prose description and its flags.
#[derive(Debug)]
pub struct Command {
    pub name: &'static str,
    /// One paragraph; [`Command::help`] wraps it.
    pub about: &'static str,
    pub flags: &'static [Flag],
}

/// Help lines are wrapped to this many columns.
const WIDTH: usize = 78;

impl Command {
    /// The declared flag called `name`, if any.
    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// This command's help section: the synopsis generated from the
    /// flags, then the prose, both wrapped to [`WIDTH`] columns.
    pub fn help(&self) -> String {
        let head = format!("  adaptcomm {}", self.name);
        let flags = self.flags.iter().map(|f| match f.value {
            Some(v) => format!("[--{} {v}]", f.name),
            None => format!("[--{}]", f.name),
        });
        let mut out = wrap(&head, head.len() + 1, flags);
        out.push_str(&wrap("      ", 6, self.about.split_whitespace()));
        out
    }
}

/// Lays `words` out after `head`, one space apart, breaking lines at
/// [`WIDTH`] characters and indenting continuation lines by `indent`.
fn wrap(head: &str, indent: usize, words: impl Iterator<Item = impl AsRef<str>>) -> String {
    let mut out = String::new();
    let mut line = head.to_string();
    for word in words {
        let word = word.as_ref();
        if !line.trim_start().is_empty() {
            if line.chars().count() + 1 + word.chars().count() > WIDTH {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(indent);
            } else {
                line.push(' ');
            }
        }
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
    out
}

/// Parsed options of one subcommand: each given flag with its value
/// (`None` for a switch).
#[derive(Debug)]
pub struct Options {
    command: &'static Command,
    given: HashMap<&'static str, Option<String>>,
}

impl Options {
    /// Parses the argument list following `command`. A `--help` or `-h`
    /// anywhere in it yields just the `help` switch, whatever else the
    /// list holds. Otherwise a flag the command does not declare, a flag
    /// given twice, a value after a switch and a value flag without its
    /// value are errors naming the command and the flag.
    pub fn parse(command: &'static Command, args: &[String]) -> Result<Options, String> {
        let mut out = Options {
            command,
            given: HashMap::new(),
        };
        if args.iter().any(|a| a == "--help" || a == "-h") {
            out.given.insert("help", None);
            return Ok(out);
        }
        let cmd = command.name;
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("`{cmd}`: expected `--option`, found `{arg}`"));
            };
            let flag = command.flag(key).ok_or_else(|| {
                format!("`{cmd}` has no option `--{key}` (see `adaptcomm {cmd} --help`)")
            })?;
            if out.given.contains_key(flag.name) {
                return Err(format!("`{cmd}`: `--{key}` given twice"));
            }
            let next = args.get(i + 1);
            let value = match (flag.value, next.filter(|v| !v.starts_with("--"))) {
                (None, Some(v)) => {
                    return Err(format!(
                        "`{cmd}`: `--{key}` is a switch and takes no value, found `{v}`"
                    ))
                }
                (Some(_), None) => {
                    let found = next.map(|v| format!(", found `{v}`")).unwrap_or_default();
                    return Err(format!("`{cmd}`: `--{key}` needs a value{found}"));
                }
                (_, value) => value.cloned(),
            };
            i += 1 + usize::from(value.is_some());
            out.given.insert(flag.name, value);
        }
        Ok(out)
    }

    /// Debug builds: `key` must be declared for the command, as a value
    /// flag or a switch as `switch` says. `help` is every command's switch.
    fn declared(&self, key: &str, switch: bool) {
        debug_assert!(
            (switch && key == "help")
                || self
                    .command
                    .flag(key)
                    .is_some_and(|f| f.value.is_none() == switch),
            "`{}` reads `--{key}` as a {}, which its table does not declare",
            self.command.name,
            if switch { "switch" } else { "value" }
        );
    }

    /// A value option, if present.
    pub fn get(&self, key: &str) -> Option<String> {
        self.declared(key, false);
        self.given.get(key).cloned().flatten()
    }

    /// A required value option.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.get(key).ok_or_else(|| missing(key))
    }

    /// An optional value option parsed to `T`.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| format!("`--{key}` has an invalid value"))
    }

    /// A required option parsed to `T`.
    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.parsed(key)?.ok_or_else(|| missing(key))
    }

    /// An optional option parsed to `T`, with a default.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// True if a switch was given.
    pub fn flag(&self, key: &str) -> bool {
        self.declared(key, true);
        self.given.contains_key(key)
    }
}

fn missing(key: &str) -> String {
    format!("missing required option `--{key}`")
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST: Command = Command {
        name: "test",
        about: "A command for the parser tests.",
        flags: &[
            value("p", "<N>"),
            value("seed", "<u64>"),
            value("absent", "<N>"),
            value("matrix", "<file.csv>"),
            switch("diagram"),
            switch("events"),
        ],
    };

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_and_flags() {
        let o = Options::parse(&TEST, &strs(&["--p", "20", "--diagram", "--seed", "7"])).unwrap();
        assert_eq!(o.get("p").as_deref(), Some("20"));
        assert!(o.flag("diagram"));
        assert!(!o.flag("events"));
        assert_eq!(o.parsed_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(o.parsed_or::<u64>("absent", 42).unwrap(), 42);
        assert_eq!(o.require_parsed::<usize>("p").unwrap(), 20);
        assert_eq!(o.parsed::<u64>("seed").unwrap(), Some(7));
        assert_eq!(o.parsed::<u64>("absent").unwrap(), None);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Options::parse(&TEST, &strs(&["--p"])).is_err());
        assert!(Options::parse(&TEST, &strs(&["--p", "--diagram"])).is_err());
        assert!(Options::parse(&TEST, &strs(&["stray"])).is_err());
    }

    #[test]
    fn help_anywhere_is_the_help_flag() {
        for argv in [
            &["--help"][..],
            &["-h"],
            &["--p", "8", "--help"],
            &["--p", "--help"],
            &["-h", "stray"],
            &["--sede", "1", "--help"],
        ] {
            let o = Options::parse(&TEST, &strs(argv)).unwrap();
            assert!(o.flag("help"), "{argv:?}");
        }
        assert!(!Options::parse(&TEST, &strs(&["--p", "8"]))
            .unwrap()
            .flag("help"));
    }

    #[test]
    fn missing_required_reported() {
        let o = Options::parse(&TEST, &[]).unwrap();
        assert!(o.require("matrix").unwrap_err().contains("--matrix"));
        assert!(o.require_parsed::<usize>("p").is_err());
    }

    #[test]
    fn bad_parse_reported() {
        let o = Options::parse(&TEST, &strs(&["--p", "abc"])).unwrap();
        assert!(o.require_parsed::<usize>("p").is_err());
        assert!(o.parsed_or::<usize>("p", 1).is_err());
        assert!(o.parsed::<usize>("p").is_err());
    }

    #[test]
    fn undeclared_repeated_and_misused_flags_name_command_and_flag() {
        for (argv, needle) in [
            (&["--sede", "1"][..], "--sede"),
            (&["--p", "4", "--p", "6"], "twice"),
            (&["--diagram", "--diagram"], "twice"),
            (&["--diagram", "5"], "takes no value"),
        ] {
            let err = Options::parse(&TEST, &strs(argv)).unwrap_err();
            assert!(err.contains("`test`"), "{err}");
            assert!(err.contains(needle), "{err}");
            assert!(err.contains(argv[0]), "{err}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not declare")]
    fn reading_an_undeclared_key_panics_in_debug_builds() {
        Options::parse(&TEST, &[]).unwrap().get("sede");
    }

    #[test]
    fn help_is_generated_from_the_table() {
        let text = TEST.help();
        assert!(text.starts_with("  adaptcomm test [--p <N>] [--seed <u64>]"));
        assert!(text.contains("[--diagram] [--events]"));
        assert!(text.contains("\n      A command for the parser tests.\n"));
        assert!(text.lines().all(|l| l.chars().count() <= WIDTH), "{text}");
    }
}
