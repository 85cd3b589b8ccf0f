//! Flag parsing shared by the two binaries.

/// The value of `key` in `args` run through `parse`, or `default` when the
/// flag is absent.
pub fn flag<T>(
    args: &[String],
    key: &str,
    default: T,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    match args
        .iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
    {
        Some(value) => parse(value),
        None => Ok(default),
    }
}

/// A decimal or `0x`-prefixed hexadecimal integer that fits `T`.
pub fn int<T: TryFrom<u64>>(s: &str) -> Result<T, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed
        .ok()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("not a number in range: {s}"))
}
