//! The one flag parser of every VeriBug binary. A binary declares each
//! of its flags in a [`Spec`] as a switch (`--quick`) or as taking one
//! value (`--out PATH`); `--obs PATH` and `--quiet` are on every spec. An
//! unknown flag, a value flag without its value, a switch given a value and
//! a value [`Opts::numeric`] cannot parse are errors that list the valid
//! flags.

use std::collections::HashMap;

/// The flags one binary (or one `veribug` subcommand) accepts.
#[derive(Debug)]
pub struct Spec {
    /// The command as messages name it, e.g. `veribug train` or
    /// `exp_table3`.
    pub name: &'static str,
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags that take one value, the next argument.
    pub values: &'static [&'static str],
}

impl Spec {
    /// Whether `flag` takes a value; `None` for an unknown flag. Every spec
    /// also knows `--obs PATH` and `--quiet`.
    fn takes_value(&self, flag: &str) -> Option<bool> {
        let value = flag == "obs" || self.values.contains(&flag);
        (value || flag == "quiet" || self.switches.contains(&flag)).then_some(value)
    }

    /// `valid options: --a, --b, ...`, sorted, `--obs` and `--quiet`
    /// included.
    fn valid(&self) -> String {
        let mut flags = [self.switches, self.values, &["obs", "quiet"]].concat();
        flags.sort_unstable();
        let flags: Vec<String> = flags.iter().map(|f| format!("--{f}")).collect();
        format!("valid options: {}", flags.join(", "))
    }
}

/// The flags one command line gave, checked against its [`Spec`].
#[derive(Debug)]
pub struct Opts {
    spec: &'static Spec,
    given: HashMap<String, String>,
}

impl Opts {
    /// The value of a value flag, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.given.get(key).map(String::as_str)
    }

    /// Whether a flag was given.
    pub fn has(&self, key: &str) -> bool {
        self.given.contains_key(key)
    }

    /// The value of a flag the command cannot run without.
    ///
    /// # Errors
    ///
    /// `missing required option --KEY` when it was not given.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// The value of a flag parsed as a `T`, or `default` when not given.
    ///
    /// # Errors
    ///
    /// `bad value for --KEY: ...`, with the valid flags, when the value
    /// does not parse.
    pub fn numeric<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|e| format!("bad value for --{key}: {e}; {}", self.spec.valid())),
        }
    }

    /// Records an argument the caller parsed itself (a positional ahead of
    /// the flags), readable through [`Opts::get`] and [`Opts::required`].
    pub fn insert(&mut self, key: &str, value: String) {
        self.given.insert(key.to_owned(), value);
    }
}

/// Reads `args` (without the program name) against `spec`.
///
/// # Errors
///
/// The first bad argument: a positional, an unknown flag, a value flag
/// given last or followed by a flag, or a switch followed by a value.
pub fn parse(
    spec: &'static Spec,
    args: impl IntoIterator<Item = impl AsRef<str>>,
) -> Result<Opts, String> {
    let mut given = HashMap::new();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let arg = arg.as_ref();
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument `{arg}` for `{}` (flags start with --)",
                spec.name
            ));
        };
        let name = spec.name;
        let value = args
            .next_if(|v| !v.as_ref().starts_with("--"))
            .map(|v| v.as_ref().to_owned());
        let problem = match (spec.takes_value(key), value) {
            (Some(true), Some(v)) => {
                given.insert(key.to_owned(), v);
                continue;
            }
            (Some(false), None) => {
                given.insert(key.to_owned(), String::new());
                continue;
            }
            (None, _) => format!("unknown option --{key} for `{name}`"),
            (Some(true), None) => format!("option --{key} for `{name}` needs a value"),
            (Some(false), Some(v)) => {
                format!("option --{key} for `{name}` takes no value, got `{v}`")
            }
        };
        return Err(format!("{problem}; {}", spec.valid()));
    }
    Ok(Opts { spec, given })
}

/// Parses a binary's arguments (without the program name) against `spec`,
/// or ends the process through [`fail`]. Then `--quiet` silences progress
/// lines, and `--obs PATH` (else a nonempty `VERIBUG_OBS`) enables
/// collection and names the file [`crate::report`] writes; the first path
/// set is kept for the life of the process.
pub fn init(spec: &'static Spec, args: impl IntoIterator<Item = impl AsRef<str>>) -> Opts {
    let opts = parse(spec, args).unwrap_or_else(|e| fail(&e));
    let env = || std::env::var("VERIBUG_OBS").ok();
    let path = opts.get("obs").map(str::to_owned).or_else(env);
    if let Some(path) = path.filter(|p| !p.is_empty()) {
        let _ = crate::OUT_PATH.set(path);
        crate::enable();
    }
    crate::set_quiet(opts.has("quiet"));
    opts
}

/// Prints `error: MESSAGE` to stderr and exits with status 1: how a
/// binary ends on a bad command line.
pub fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        name: "demo",
        switches: &["quick"],
        values: &["reps"],
    };
    const BARE: Spec = Spec {
        name: "bare",
        switches: &[],
        values: &[],
    };

    fn err(spec: &'static Spec, args: &[&str]) -> String {
        parse(spec, args).expect_err("rejected")
    }

    #[test]
    fn switches_and_values_parse() {
        let o = parse(&SPEC, ["--quick", "--reps", "5"]).unwrap();
        assert!(o.has("quick"));
        assert_eq!(o.get("reps"), Some("5"));
        assert_eq!(o.numeric("reps", 3usize), Ok(5));
        let o = parse(&SPEC, [] as [&str; 0]).unwrap();
        assert!(!o.has("quick"));
        assert_eq!(o.numeric("reps", 3usize), Ok(3));
        assert_eq!(
            o.required("reps"),
            Err("missing required option --reps".to_owned())
        );
        // A value may look like a negative number.
        assert_eq!(
            parse(&SPEC, ["--reps", "-1"]).unwrap().get("reps"),
            Some("-1")
        );
    }

    #[test]
    fn obs_and_quiet_are_accepted_by_every_spec() {
        for spec in [&SPEC, &BARE] {
            let o = parse(spec, ["--obs", "t.json", "--quiet"]).unwrap();
            assert_eq!(o.get("obs"), Some("t.json"));
            assert!(o.has("quiet"));
            assert!(err(spec, &["--obs"]).contains("needs a value"));
            assert!(err(spec, &["--quiet", "yes"]).contains("takes no value"));
        }
    }

    #[test]
    fn an_unknown_flag_lists_the_valid_ones() {
        assert_eq!(
            err(&SPEC, &["--qiuck"]),
            "unknown option --qiuck for `demo`; valid options: --obs, --quick, --quiet, --reps"
        );
        assert_eq!(
            err(&BARE, &["--quick"]),
            "unknown option --quick for `bare`; valid options: --obs, --quiet"
        );
    }

    #[test]
    fn a_value_flag_without_its_value_is_rejected() {
        let expected = "option --reps for `demo` needs a value; \
                        valid options: --obs, --quick, --quiet, --reps";
        assert_eq!(err(&SPEC, &["--reps"]), expected);
        assert_eq!(err(&SPEC, &["--reps", "--quick"]), expected);
    }

    #[test]
    fn a_switch_given_a_value_is_rejected() {
        assert_eq!(
            err(&SPEC, &["--quick", "1"]),
            "option --quick for `demo` takes no value, got `1`; \
             valid options: --obs, --quick, --quiet, --reps"
        );
    }

    #[test]
    fn an_unparseable_number_is_rejected() {
        let o = parse(&SPEC, ["--reps", "x"]).unwrap();
        assert_eq!(
            o.numeric("reps", 3usize),
            Err("bad value for --reps: invalid digit found in string; \
                 valid options: --obs, --quick, --quiet, --reps"
                .to_owned())
        );
    }

    #[test]
    fn a_positional_argument_is_rejected() {
        assert_eq!(
            err(&SPEC, &["quick"]),
            "unexpected argument `quick` for `demo` (flags start with --)"
        );
    }
}
