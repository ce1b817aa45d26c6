//! The benchmark's side of the daemon's NDJSON protocol: request lines
//! out, a cheap field scan of response lines in.
//!
//! The open-loop reader must keep up with tens of thousands of responses
//! a second on the same cores as the daemon, so it does not build a JSON
//! tree per line. It relies on two facts of the wire format: a key
//! pattern `"key":` cannot occur inside a JSON string (every quote there
//! is escaped), and the daemon renders the embedded `report` object last,
//! after every top-level field.

use crate::family::Family;

/// The daemon's default per-candidate step budget; store keys of warm
/// entries count down from it.
pub const STEP_BUDGET: u64 = augem::tune::resilient::DEFAULT_STEP_BUDGET;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Returns the assembly text.
    Generate,
    /// Returns the measurement only.
    Tune,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Generate => "generate",
            Op::Tune => "tune",
        }
    }
}

/// One request line (newline-terminated) for request number `id`.
pub fn request(id: u64, op: Op, family: Family, step_limit: Option<u64>) -> String {
    let budget = step_limit
        .map(|s| format!(",\"step_limit\":{s}"))
        .unwrap_or_default();
    format!(
        "{{\"id\":\"r{id}\",\"op\":\"{}\",\"kernel\":\"{}\",\"machine\":\"{}\"{budget}}}\n",
        op.name(),
        family.kernel.name(),
        family.machine.wire()
    )
}

pub fn control(id: &str, op: &str) -> String {
    format!("{{\"id\":\"{id}\",\"op\":\"{op}\"}}\n")
}

/// The top-level fields of one response line, borrowed from it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Reply<'a> {
    /// Request number, when the id has the benchmark's `r<n>` form.
    pub id: Option<u64>,
    pub status: &'a str,
    pub cache: Option<&'a str>,
    pub config: Option<&'a str>,
    /// The Mflops number exactly as rendered.
    pub mflops: Option<&'a str>,
    /// The assembly as escaped on the wire (equal iff the text is equal).
    pub asm: Option<&'a str>,
    pub work_ns: Option<u64>,
}

impl Reply<'_> {
    /// A kernel shipped (possibly from a fallback rung).
    pub fn shipped(&self) -> bool {
        matches!(self.status, "ok" | "degraded")
    }
}

pub fn scan(line: &str) -> Reply<'_> {
    let top = line.find(",\"report\":").map_or(line, |end| &line[..end]);
    Reply {
        id: string_field(top, "id")
            .and_then(|id| id.strip_prefix('r'))
            .and_then(|n| n.parse().ok()),
        status: string_field(top, "status").unwrap_or(""),
        cache: string_field(top, "cache"),
        config: string_field(top, "config"),
        mflops: number_field(top, "mflops"),
        asm: string_field(top, "asm"),
        work_ns: number_field(top, "work_ns").and_then(|n| n.parse().ok()),
    }
}

fn value_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    text.find(&pattern).map(|at| &text[at + pattern.len()..])
}

/// The raw (still escaped) contents of a string field.
fn string_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = value_after(text, key)?.strip_prefix('"')?;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&rest[..i]),
            _ => i += 1,
        }
    }
    None
}

fn number_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = value_after(text, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem::obs::Json;
    use augem_serve::{Response, Status};

    fn rendered() -> String {
        let mut r = Response::new("r42", Status::Ok);
        r.cache = Some("hit");
        r.kernel = Some("dgemm".into());
        r.config_tag = Some("8x3x1 Vdup Auto pf=off sched=true".into());
        r.mflops = Some(25681.063964534515);
        r.asm = Some("vmovapd (%rdi), %ymm0\n\"quoted\" \\ \"config\":\"x\"".into());
        r.work_ns = Some(71234);
        r.report = Some(Json::obj(vec![
            ("config", Json::str("decoy")),
            ("mflops", Json::Num(1.0)),
        ]));
        r.to_json().render()
    }

    #[test]
    fn scan_reads_top_level_fields_of_a_real_response() {
        let line = rendered();
        let r = scan(&line);
        assert_eq!(r.id, Some(42));
        assert_eq!(r.status, "ok");
        assert_eq!(r.cache, Some("hit"));
        assert_eq!(r.config, Some("8x3x1 Vdup Auto pf=off sched=true"));
        assert_eq!(
            r.mflops.map(|m| m.parse::<f64>().unwrap()),
            Some(25681.063964534515)
        );
        assert_eq!(r.work_ns, Some(71234));
        let decoded = Json::parse(&line).unwrap();
        let asm = decoded.get("asm").and_then(Json::as_str).unwrap();
        assert_eq!(Json::str(asm).render(), format!("\"{}\"", r.asm.unwrap()));
        assert!(r.shipped());
    }

    #[test]
    fn report_fields_never_stand_in_for_missing_top_level_ones() {
        let mut e = Response::error("r7", "no kernel");
        e.report = Some(Json::obj(vec![("config", Json::str("decoy"))]));
        let line = e.to_json().render();
        let r = scan(&line);
        assert_eq!(r.status, "error");
        assert_eq!(r.config, None);
        assert!(!r.shipped());
    }

    #[test]
    fn request_lines_parse_on_the_daemon_side() {
        let f = Family::all()[7];
        let line = request(9, Op::Tune, f, Some(STEP_BUDGET - 3));
        let req = augem_serve::parse_request(line.trim_end()).unwrap();
        assert_eq!(req.id, "r9");
        assert_eq!(req.op, augem_serve::Op::Tune);
        assert_eq!(req.kernel, f.kernel);
        assert_eq!(req.step_limit, Some(STEP_BUDGET - 3));
        assert!(augem_serve::parse_request(control("s", "stats").trim_end()).is_ok());
    }
}
