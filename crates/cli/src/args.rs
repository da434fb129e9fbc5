//! Minimal `--key value` / `--flag` argument parsing (no dependencies).

use std::collections::HashMap;

/// Parsed options: `--key value` pairs and bare `--flag`s.
#[derive(Debug, Default)]
pub struct Options {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

/// Keys that take no value.
const FLAG_KEYS: &[&str] = &[
    "diagram", "events", "adapt", "trace", "once", "probe", "shutdown",
];

impl Options {
    /// Parses the argument list following the subcommand. A `--help` or
    /// `-h` anywhere in it yields just the `help` flag, whatever else the
    /// list holds.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut out = Options::default();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            out.flags.push("help".to_string());
            return Ok(out);
        }
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("expected `--option`, found `{arg}`"));
            };
            if FLAG_KEYS.contains(&key) {
                out.flags.push(key.to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("`--{key}` needs a value"))?;
                if value.starts_with("--") {
                    return Err(format!("`--{key}` needs a value, found `{value}`"));
                }
                out.values.insert(key.to_string(), value.clone());
                i += 2;
            }
        }
        Ok(out)
    }

    /// A value option, if present.
    pub fn get(&self, key: &str) -> Option<String> {
        self.values.get(key).cloned()
    }

    /// A required value option.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option `--{key}`"))
    }

    /// A required option parsed to `T`.
    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.require(key)?
            .parse()
            .map_err(|_| format!("`--{key}` has an invalid value"))
    }

    /// An optional option parsed to `T`, with a default.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{key}` has an invalid value")),
        }
    }

    /// True if a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_and_flags() {
        let o = Options::parse(&strs(&["--p", "20", "--diagram", "--seed", "7"])).unwrap();
        assert_eq!(o.get("p").as_deref(), Some("20"));
        assert!(o.flag("diagram"));
        assert!(!o.flag("events"));
        assert_eq!(o.parsed_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(o.parsed_or::<u64>("absent", 42).unwrap(), 42);
        assert_eq!(o.require_parsed::<usize>("p").unwrap(), 20);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Options::parse(&strs(&["--p"])).is_err());
        assert!(Options::parse(&strs(&["--p", "--diagram"])).is_err());
        assert!(Options::parse(&strs(&["stray"])).is_err());
    }

    #[test]
    fn help_anywhere_is_the_help_flag() {
        for argv in [
            &["--help"][..],
            &["-h"],
            &["--p", "8", "--help"],
            &["--p", "--help"],
            &["-h", "stray"],
        ] {
            let o = Options::parse(&strs(argv)).unwrap();
            assert!(o.flag("help"), "{argv:?}");
        }
        assert!(!Options::parse(&strs(&["--p", "8"])).unwrap().flag("help"));
    }

    #[test]
    fn missing_required_reported() {
        let o = Options::parse(&[]).unwrap();
        assert!(o.require("matrix").unwrap_err().contains("--matrix"));
        assert!(o.require_parsed::<usize>("p").is_err());
    }

    #[test]
    fn bad_parse_reported() {
        let o = Options::parse(&strs(&["--p", "abc"])).unwrap();
        assert!(o.require_parsed::<usize>("p").is_err());
        assert!(o.parsed_or::<usize>("p", 1).is_err());
    }
}
