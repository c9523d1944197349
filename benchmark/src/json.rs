//! The result line: one JSON object, written by a workload's process and
//! read back by `all` and `selfcheck`.

/// What one run of one workload reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order they are printed.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Values go out in Rust's shortest form that reads back to the same
    /// `f64`, so no digit a measurement had is rounded away.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is {value}");
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn parse(line: &str) -> Result<RunResult, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            at: 0,
        };
        let top = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(format!("trailing bytes at {}", p.at));
        }
        let field = |key: &str| {
            top.get(key)
                .ok_or_else(|| format!("result line lacks {key:?}"))
        };
        let whole = |key: &str| match field(key)? {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            other => Err(format!("{key}: expected a whole number, got {other:?}")),
        };
        let correct = match field("correct")? {
            Value::Bool(b) => *b,
            other => return Err(format!("correct: expected a bool, got {other:?}")),
        };
        let Value::Obj(entries) = field("metrics")? else {
            return Err("metrics: expected an object".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in entries {
            match (m.get("value"), m.get("unit")) {
                (Some(Value::Num(v)), Some(Value::Str(u))) => {
                    metrics.push((name.clone(), *v, u.clone()))
                }
                _ => return Err(format!("metric {name:?}: expected value and unit")),
            }
        }
        Ok(RunResult {
            correct,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
        })
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug)]
enum Value {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Reads the subset `to_json` writes: objects, strings, numbers, booleans.
struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') | Some(b'f') => {
                for (word, v) in [("true", true), ("false", false)] {
                    if self.s[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return Ok(Value::Bool(v));
                    }
                }
                Err(format!("bad literal at byte {}", self.at))
            }
            Some(_) => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.s[start..self.at])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.ws();
        if self.s.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            entries.push((key, self.value()?));
            self.ws();
            match self.s.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(format!("expected , or }} at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.at + 1).ok_or("unexpected end")?;
                    self.at += 2;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                            self.at += 4;
                        }
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let r = RunResult {
            correct: true,
            attempted: 2_560_000,
            failed: 0,
            metrics: vec![
                ("units_per_s".into(), 571_234.567_891_234_5, "1/s".into()),
                ("setup_s".into(), 0.000_812_734_1, "s".into()),
                ("odd \"name\"\\".into(), -1.5e-9, "a\tb".into()),
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::parse(&line).unwrap(), r);
        assert_eq!(r.metric("setup_s"), Some(0.000_812_734_1));
        assert_eq!(r.metric("absent"), None);
    }

    #[test]
    fn contract_example_parses_and_malformed_lines_do_not() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        let r = RunResult::parse(line).unwrap();
        assert_eq!((r.correct, r.attempted, r.failed), (true, 1000, 0));
        assert_eq!(r.metrics[0], ("latency_ms".into(), 1.2034, "ms".into()));
        for bad in [
            "",
            "{",
            r#"{"correct": true}"#,
            r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": 3}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}} x"#,
        ] {
            assert!(RunResult::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
