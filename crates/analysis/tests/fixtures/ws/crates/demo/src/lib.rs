//! Fixture crate for pipellm-lint integration tests: every violation
//! below is seeded deliberately, and the test asserts the exact rule id
//! and line for each. Keep line numbers stable when editing.

pub fn panics(v: Option<u32>) -> u32 {
    let x = v.unwrap(); // seeded PL002 (line 6)
    println!("debug {x}"); // seeded PL005 (line 7)
    x
}

/// An unsafe block with no justifying comment anywhere near it.
pub fn undocumented_unsafe(p: *const u8) -> u8 {
    unsafe { *p } // seeded PL001 (line 13)
}

/// Hand-rolled counters outside the crypto crate.
pub fn bad_counters() -> u64 {
    let mut iv = 7; // seeded PL003 (line 18)
    iv += 1; // seeded PL003 (line 19)
    iv
}

/// `?`-propagated opens, one per name PL004 lists.
pub fn bad_open(rx: &mut Rx, msg: Sealed) -> Result<Vec<u8>, Err2> {
    let plain = rx.open(&msg)?; // seeded PL004 (line 25)
    rx.open_in_place(&msg)?; // seeded PL004 (line 26)
    rx.open_in_place_or_sentinel(&msg)?; // seeded PL004 (line 27)
    kv::open_kv_group(rx, msg)?; // seeded PL004 (line 28)
    Ok(plain)
}

/// Supporting types so the fixture reads like real code (never compiled;
/// the other opens and `kv` are elided).
pub struct Rx;
/// Sealed message stand-in.
pub struct Sealed;
/// Error stand-in.
pub struct Err2;

impl Rx {
    /// Stand-in for the crypto open.
    pub fn open(&mut self, _m: &Sealed) -> Result<Vec<u8>, Err2> {
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_in_tests_are_fine() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1); // NOT a finding: test region
        println!("also fine here");
    }
}
