//! The one strict reader for the JSON that crosses a process boundary:
//! daemon frames, spec outputs and cache entries (which are also how
//! a shard's outputs cross hosts).

use serde::Value;

/// Largest count a JSON number (an `f64`) carries exactly: 2^53.
const MAX_EXACT_COUNT: f64 = 9_007_199_254_740_992.0;

/// Reads a `{:016x}` rendering (a hash, a fingerprint, a float's bits)
/// back: exactly 16 lowercase hex digits, the writer's only spelling.
pub fn parse_hex16(s: &str) -> Option<u64> {
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical.then(|| u64::from_str_radix(s, 16).ok()).flatten()
}

/// A strict reader over one JSON object. It hands out members by name
/// as the type the caller expects and never guesses: a missing or
/// mistyped member, a count that is not an exact whole number, and a
/// key that appears twice (where [`Value::get`] would take the first)
/// are errors at the lookup, and [`Fields::done`] rejects every key
/// nobody asked for. Errors name the object and the member.
#[derive(Debug)]
pub struct Fields<'a> {
    what: &'a str,
    members: &'a [(String, Value)],
    taken: Vec<bool>,
}

impl<'a> Fields<'a> {
    /// Opens `value`, which must be an object; `what` names it in
    /// errors.
    pub fn of(value: &'a Value, what: &'a str) -> Result<Self, String> {
        let Value::Object(members) = value else {
            return Err(format!("{what}: not an object"));
        };
        let taken = vec![false; members.len()];
        Ok(Self {
            what,
            members,
            taken,
        })
    }

    fn error(&self, key: &str, problem: &str) -> String {
        format!("{}: member {key:?} {problem}", self.what)
    }

    /// The member `key`, of any type; it must appear exactly once.
    pub fn value(&mut self, key: &str) -> Result<&'a Value, String> {
        let members = self.members;
        let mut matches = members.iter().enumerate().filter(|(_, (k, _))| k == key);
        let Some((i, (_, v))) = matches.next() else {
            return Err(self.error(key, "is missing"));
        };
        if matches.next().is_some() {
            return Err(self.error(key, "appears twice"));
        }
        self.taken[i] = true;
        Ok(v)
    }

    /// A member that must be present and may be `null`: `None` for
    /// `null`, else what `read` makes of it.
    pub fn or_null<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.value(key)? {
            Value::Null => Ok(None),
            _ => read(self, key).map(Some),
        }
    }

    /// A string member.
    pub fn string(&mut self, key: &str) -> Result<&'a str, String> {
        let v = self.value(key)?;
        v.as_str().ok_or_else(|| self.error(key, "is not a string"))
    }

    /// A numeric member, any `f64`.
    pub fn number(&mut self, key: &str) -> Result<f64, String> {
        let v = self.value(key)?;
        v.as_f64().ok_or_else(|| self.error(key, "is not a number"))
    }

    /// A count: an integral number in `0..=2^53` that fits `T`. A
    /// fraction, a negative (`-0` included), a non-finite value or one
    /// past `f64`'s exact integers is an error, never rounded.
    pub fn count<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, String> {
        let n = self.number(key)?;
        let exact = n.fract() == 0.0 && n.is_sign_positive() && n <= MAX_EXACT_COUNT;
        let count = exact.then(|| T::try_from(n as u64).ok()).flatten();
        count.ok_or_else(|| self.error(key, &format!("is not a count in 0..=2^53: {n}")))
    }

    /// An array member.
    pub fn array(&mut self, key: &str) -> Result<&'a [Value], String> {
        match self.value(key)? {
            Value::Array(items) => Ok(items),
            _ => Err(self.error(key, "is not an array")),
        }
    }

    /// An array-of-strings member.
    pub fn strings(&mut self, key: &str) -> Result<Vec<String>, String> {
        let string = |s: &Value| s.as_str().map(String::from);
        let strings: Option<_> = self.array(key)?.iter().map(string).collect();
        strings.ok_or_else(|| self.error(key, "is not an array of strings"))
    }

    /// A nested-object member, opened for reading under the name `key`.
    pub fn object(&mut self, key: &'a str) -> Result<Fields<'a>, String> {
        Fields::of(self.value(key)?, key)
    }

    /// Closes the object, handing back what the caller `read` from it
    /// if every member was asked for.
    pub fn done<T>(self, read: T) -> Result<T, String> {
        match self.taken.iter().position(|taken| !taken) {
            Some(i) => Err(self.error(&self.members[i].0, "is not expected here")),
            None => Ok(read),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn every_member_is_asked_for_exactly_once() {
        let v = parse(r#"{"a":"x","b":1,"a":"y"}"#);
        let mut f = Fields::of(&v, "thing").unwrap();
        assert_eq!(f.count::<u64>("b"), Ok(1));
        assert_eq!(
            f.string("a").unwrap_err(),
            "thing: member \"a\" appears twice"
        );
        assert_eq!(f.number("c").unwrap_err(), "thing: member \"c\" is missing");

        let v = parse(r#"{"a":"x","stray":null}"#);
        let mut f = Fields::of(&v, "thing").unwrap();
        assert_eq!(f.string("a"), Ok("x"));
        assert_eq!(
            f.done(()).unwrap_err(),
            "thing: member \"stray\" is not expected here"
        );
        assert!(Fields::of(&parse("[]"), "thing").is_err());
    }

    #[test]
    fn counts_are_exact_whole_numbers_that_fit() {
        let count = |n: f64| {
            let v = Value::Object(vec![("n".into(), Value::Number(n))]);
            Fields::of(&v, "t").unwrap().count::<u32>("n")
        };
        for bad in [
            1.5,
            -1.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            2f64.powi(53) + 2.0,
        ] {
            let err = count(bad).unwrap_err();
            assert!(err.contains("\"n\" is not a count"), "{bad}: {err}");
        }
        assert!(count(2f64.powi(40)).is_err(), "does not fit u32");
        assert_eq!(count(0.0), Ok(0));
        assert_eq!(count(4e9), Ok(4_000_000_000));
    }

    #[test]
    fn nullable_members_must_still_be_present() {
        let v = parse(r#"{"a":null,"b":"x","c":3}"#);
        let mut f = Fields::of(&v, "t").unwrap();
        assert_eq!(f.or_null("a", Fields::string), Ok(None));
        assert_eq!(f.or_null("b", Fields::string), Ok(Some("x")));
        assert!(f.or_null("c", Fields::string).is_err());
        assert!(f.or_null("d", Fields::string).is_err());
    }

    #[test]
    fn hex16_accepts_only_the_writers_spelling() {
        assert_eq!(parse_hex16("00000000000000ff"), Some(255));
        assert_eq!(parse_hex16(&format!("{:016x}", u64::MAX)), Some(u64::MAX));
        for bad in [
            "ff",
            "00000000000000FF",
            "+0000000000000ff",
            "000000000000000ff",
            "",
        ] {
            assert_eq!(parse_hex16(bad), None, "{bad}");
        }
    }
}
