//! The one option parser behind every `dvs` command.
//!
//! A command declares its arguments as the usage text itself: positionals
//! first (`<file.dvst>`, `<phase.dvst>...` for one or more), then flags.
//! A flag token starts with `-` and may name aliases (`-o|--out`); the
//! placeholder words after it are its values (`--fuzz START COUNT` takes
//! two, `--oracle` none). Brackets mark a flag optional; a flag written
//! without them is required. Anything the declaration does not name is
//! rejected, as are missing values, missing required flags and a wrong
//! number of positionals.

/// One declared flag: its spellings (the first is canonical), how many
/// values follow it, and whether the command requires it.
struct Flag {
    names: Vec<&'static str>,
    arity: usize,
    required: bool,
}

/// A command line checked against its declaration.
pub struct Args {
    /// The positional arguments, in order.
    pub pos: Vec<String>,
    /// Every flag given, under its canonical name, with its values.
    flags: Vec<(&'static str, Vec<String>)>,
}

impl Args {
    /// Parses `raw` against the declarations in `specs` (read in order, as
    /// one text).
    pub fn parse(specs: &[&'static str], raw: &[String]) -> Result<Args, String> {
        let (mut wanted, mut variadic, mut flags) = (0, false, Vec::<Flag>::new());
        for token in specs.iter().flat_map(|s| s.split_whitespace()) {
            let bare = token.trim_matches(['[', ']']);
            if bare.starts_with('-') {
                let (names, required) = (bare.split('|').collect(), !token.starts_with('['));
                flags.push(Flag {
                    names,
                    arity: 0,
                    required,
                });
            } else if let Some(flag) = flags.last_mut() {
                flag.arity += 1;
            } else {
                wanted += 1;
                variadic = bare.ends_with("...");
            }
        }
        let mut args = Args {
            pos: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                args.pos.push(arg.clone());
                continue;
            }
            let flag = flags
                .iter()
                .find(|f| f.names.contains(&arg.as_str()))
                .ok_or_else(|| format!("unknown option {arg}"))?;
            let values: Vec<String> = it.by_ref().take(flag.arity).cloned().collect();
            if values.len() < flag.arity {
                return Err(format!("{arg} needs {} value(s)", flag.arity));
            }
            args.flags.push((flag.names[0], values));
        }
        if let Some(f) = flags.iter().find(|f| f.required && !args.has(f.names[0])) {
            return Err(format!("{} is required", f.names[0]));
        }
        let got = args.pos.len();
        if got < wanted || (got > wanted && !variadic) {
            return Err(format!("expected {wanted} argument(s), got {got}"));
        }
        Ok(args)
    }

    /// The values of the last occurrence of `flag`.
    pub fn values(&self, flag: &str) -> Option<&[String]> {
        let last = self.flags.iter().rev().find(|(name, _)| *name == flag);
        last.map(|(_, values)| values.as_slice())
    }

    pub fn has(&self, flag: &str) -> bool {
        self.values(flag).is_some()
    }

    /// The (first) value of `flag`.
    pub fn str(&self, flag: &str) -> Option<&str> {
        self.values(flag)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    /// The value of `flag` run through `parse`; errors name the flag.
    pub fn get<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let value = self.str(flag).map(parse).transpose();
        value.map_err(|e| format!("{flag}: {e}"))
    }

    /// The number given for `flag`, or `default`.
    pub fn num<T: TryFrom<u64>>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.get(flag, number)?.unwrap_or(default))
    }
}

/// The number rule for every numeric argument: decimal, or hex after `0x`.
pub fn number<T: TryFrom<u64>>(tok: &str) -> Result<T, String> {
    let parsed = match tok.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => tok.parse(),
    };
    let parsed = parsed.ok().and_then(|n| T::try_from(n).ok());
    parsed.ok_or_else(|| format!("bad number {tok:?}"))
}
