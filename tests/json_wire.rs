//! Proof that the wire's two decoders and two codecs agree, and that
//! the wire answers exactly as frozen.
//!
//! The borrowed pull-parser (`json::Reader`) and the tree-free
//! serializer (`json::Writer`) carry the server hot path; the `Json`
//! tree codec stays as the decoder of every line the hot decoder
//! declines. These tests pin the pairs together:
//!
//! 1. seeded random `Json` trees round-trip through (tree parser →
//!    writer) and (reader → tree serializer) byte-identically;
//! 2. 2000 seeded corrupt lines are rejected by **both** parsers, each
//!    carrying a source position, and on lines where one parser
//!    accepts, the other accepts the same value;
//! 3. on every line of the golden smoke conversation and a seeded
//!    random protocol stream, the hot request decoder and the tree
//!    decoder agree wherever the hot one accepts, and every response is
//!    the canonical encoding of itself;
//! 4. the engine answers both streams byte for byte as their golden
//!    transcripts record.

use design_space_layer::foundation::json::{self, Json, Reader};
use design_space_layer::foundation::rng::{Rng, SeedableRng, StdRng};

// ---- seeded tree generator ---------------------------------------------

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..12);
    let mut s = String::new();
    for _ in 0..len {
        match rng.gen_range(0u32..10) {
            // Plain ASCII dominates, as it does on the wire.
            0..=5 => s.push(rng.gen_range(0x20u8..0x7f) as char),
            6 => s.push(['"', '\\', '/'][rng.gen_range(0usize..3)]),
            7 => s.push(['\n', '\t', '\r', '\u{8}', '\u{c}'][rng.gen_range(0usize..5)]),
            8 => s.push(['\u{0}', '\u{1f}', '\u{7f}'][rng.gen_range(0usize..3)]),
            _ => s.push(['é', '→', '𝄞', 'ß'][rng.gen_range(0usize..4)]),
        }
    }
    s
}

fn random_float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..5) {
        0 => 0.0,
        1 => -0.5,
        2 => 8.0,
        3 => rng.gen_range(-1.0e9..1.0e9),
        _ => rng.gen_range(-1.0..1.0) * 1.0e-7,
    }
}

fn random_tree(rng: &mut StdRng, depth: usize) -> Json {
    let top = if depth >= 4 { 5 } else { 7 };
    match rng.gen_range(0u32..top) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(0u32..2) == 1),
        2 => Json::Int(rng.gen_range(i64::MIN..=i64::MAX)),
        3 => Json::Float(random_float(rng)),
        4 => Json::Str(random_string(rng)),
        5 => Json::Array(
            (0..rng.gen_range(0usize..5))
                .map(|_| random_tree(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.gen_range(0usize..5))
                .map(|i| (format!("k{i}_{}", random_string(rng)), random_tree(rng, depth + 1)))
                .collect(),
        ),
    }
}

#[test]
fn random_trees_roundtrip_byte_identically_between_codecs() {
    let mut rng = StdRng::seed_from_u64(0x11E0_C0DE);
    for case in 0..500 {
        let tree = random_tree(&mut rng, 0);
        let old = json::encode(&tree);

        // Tree-free writer serializes the same tree to the same bytes.
        let mut new = Vec::new();
        json::write_json(&mut new, &tree);
        assert_eq!(old.as_bytes(), &new[..], "case {case}: writer diverged");

        // Old parser → new writer round-trips to the input bytes.
        let via_old = Json::parse(&old).expect("old parser accepts its own output");
        let mut rewritten = Vec::new();
        json::write_json(&mut rewritten, &via_old);
        assert_eq!(old.as_bytes(), &rewritten[..], "case {case}: old→new roundtrip");

        // New reader → old serializer round-trips to the input bytes.
        let via_new = Reader::parse_document(old.as_bytes())
            .expect("new reader accepts the old serializer's output");
        assert_eq!(old, json::encode(&via_new), "case {case}: new→old roundtrip");
        assert_eq!(via_old, via_new, "case {case}: parsed values diverged");
    }
}

// ---- malformed-input parity --------------------------------------------

/// Mutates a valid document into a (usually) corrupt line.
fn corrupt(rng: &mut StdRng, base: &str) -> Option<String> {
    let mut bytes = base.as_bytes().to_vec();
    match rng.gen_range(0u32..4) {
        0 if !bytes.is_empty() => {
            bytes.truncate(rng.gen_range(0usize..bytes.len()));
        }
        1 if !bytes.is_empty() => {
            let i = rng.gen_range(0usize..bytes.len());
            bytes[i] = [b'{', b'}', b'[', b']', b',', b':', b'"', b'\\', b'e', b'0', b'+']
                [rng.gen_range(0usize..11)];
        }
        2 => {
            let i = rng.gen_range(0usize..=bytes.len());
            bytes.insert(
                i,
                [b'{', b'}', b',', b':', b'"', b'x'][rng.gen_range(0usize..6)],
            );
        }
        _ => {
            let i = rng.gen_range(0usize..=bytes.len());
            bytes.insert(i, b',');
        }
    }
    // Both parsers take `&str`; mutations that break UTF-8 are framing
    // errors, rejected before either parser runs.
    String::from_utf8(bytes).ok()
}

#[test]
fn both_parsers_reject_the_same_corrupt_lines_with_a_position() {
    let mut rng = StdRng::seed_from_u64(0xBAD_1E5);
    let mut rejected = 0usize;
    let mut generated = 0usize;
    while rejected < 2000 {
        generated += 1;
        assert!(
            generated < 40_000,
            "corruption generator stopped producing rejections \
             ({rejected} after {generated} lines)"
        );
        let base = json::encode(&random_tree(&mut rng, 0));
        let Some(line) = corrupt(&mut rng, &base) else {
            continue;
        };
        let old = Json::parse(&line);
        let new = Reader::parse_document(line.as_bytes());
        match (old, new) {
            (Err(eo), Err(en)) => {
                assert!(
                    eo.line >= 1 && eo.col >= 1,
                    "old parser rejected {line:?} without a position: {eo}"
                );
                assert!(
                    en.line >= 1 && en.col >= 1,
                    "new parser rejected {line:?} without a position: {en}"
                );
                rejected += 1;
            }
            // A mutation can still be valid JSON; then both must accept
            // the same value.
            (Ok(a), Ok(b)) => assert_eq!(a, b, "parsers accepted {line:?} differently"),
            (Ok(_), Err(e)) => panic!("only the new parser rejected {line:?}: {e}"),
            (Err(e), Ok(_)) => panic!("only the old parser rejected {line:?}: {e}"),
        }
    }
}

// ---- decoder parity and response canonicality ---------------------------

/// On every line the hot decoder accepts, the tree decoder must decode
/// the same request (after the borrowing conversion), an id whose
/// canonical encoding is the raw id the hot decoder splices, and the
/// same deadline. Every response must be its own canonical encoding.
fn assert_decoders_agree_and_responses_are_canonical(lines: &[String]) {
    use dse_server::protocol::{parse_request, parse_request_fast};

    let engine = dse_server::EngineBuilder::new(techlib::Technology::g10_035())
        .with_shipped_layers()
        .build()
        .expect("engine builds");
    let mut fast_lines = 0;
    for line in lines {
        if let Some((fast, fast_env)) = parse_request_fast(line) {
            fast_lines += 1;
            let (tree, tree_env) = parse_request(line);
            let tree = tree.unwrap_or_else(|e| panic!("tree decoder rejected {line:?}: {e:?}"));
            assert_eq!(tree.as_fast(), Ok(fast), "requests differ on {line:?}");
            assert_eq!(
                tree_env.id.as_ref().map(json::encode).as_deref(),
                fast_env.id,
                "ids differ on {line:?}"
            );
            assert_eq!(
                tree_env.deadline_ms, fast_env.deadline_ms,
                "deadlines differ on {line:?}"
            );
        }
        let response = engine.handle_line(line);
        let reparsed = Json::parse(&response).expect("responses are JSON");
        assert_eq!(
            json::encode(&reparsed),
            response,
            "non-canonical response to {line:?}"
        );
    }
    assert!(fast_lines > 0, "no line took the hot decoder");
}

#[test]
fn golden_smoke_conversation_decoders_agree_and_responses_are_canonical() {
    let lines = smoke_script();
    assert!(lines.len() >= 20, "golden script unexpectedly short");
    assert_decoders_agree_and_responses_are_canonical(&lines);
}

/// A seeded stream of plausible-to-hostile protocol lines: valid hot
/// ops, wrong types, missing fields, duplicate keys, unknown ops,
/// unparseable garbage.
fn random_protocol_stream(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::with_capacity(n);
    for i in 0..n {
        let session = format!("f{}", rng.gen_range(0u32..4));
        let line = match rng.gen_range(0u32..22) {
            0 => format!(r#"{{"op":"open","session":"{session}","snapshot":"crypto"}}"#),
            1 => format!(r#"{{"op":"decide","session":"{session}","name":"EOL","value":768}}"#),
            2 => format!(
                r#"{{"op":"decide","session":"{session}","name":"ModuloIsOdd","value":"Guaranteed"}}"#
            ),
            3 => format!(r#"{{"op":"decide","session":"{session}","name":"EOL","value":8.5}}"#),
            4 => format!(r#"{{"op":"retract","session":"{session}"}}"#),
            5 => format!(r#"{{"op":"surviving_cores","session":"{session}","limit":3}}"#),
            6 => format!(r#"{{"op":"viable","session":"{session}","name":"ImplementationStyle"}}"#),
            7 => format!(r#"{{"op":"eval","session":"{session}"}}"#),
            8 => format!(r#"{{"op":"close","session":"{session}"}}"#),
            9 => r#"{"op":"stats"}"#.to_owned(),
            // Hostile shapes: every one must fall back (or error) the
            // same way on both paths.
            10 => format!(r#"{{"op":"decide","session":"{session}","value":768}}"#),
            11 => format!(
                r#"{{"op":"decide","op":"stats","session":"{session}","name":"EOL","value":1,"id":{i}}}"#
            ),
            12 => format!(r#"{{"op":"stats","id":{}}}"#, rng.gen_range(i64::MIN..=i64::MAX)),
            // Cold shapes: ops and encodings the borrowed decoder
            // declines, so they reach the engine through the tree
            // decoder.
            13 => match rng.gen_range(0u32..3) {
                0 => format!(
                    r#"{{"op":"report","session":"{session}","id":"r{i}","deadline_ms":0}}"#
                ),
                1 => format!(r#"{{"op":"eval","session":"{session}","deadline_ms":0,"id":{i}}}"#),
                _ => format!(r#"{{"op":"report","session":"{session}","id":"r{i}"}}"#),
            },
            14 => match rng.gen_range(0u32..3) {
                0 => r#"{"op":"invalidate","tool":"BehaviorDelayEstimator"}"#.to_owned(),
                1 => r#"{"op":"invalidate","tool":"NoSuchTool","id":7}"#.to_owned(),
                _ => r#"{"op":"invalidate"}"#.to_owned(),
            },
            15 => format!(
                r#"{{"op":"decide","session":"{session}","name":"ModuloIsOdd","value":{{"Text":"Guaranteed"}}}}"#
            ),
            16 => format!(
                r#"{{"op":"decide","session":"{session}","name":"EOL","value":{{"Int":[{}]}}}}"#,
                [512, 768, 1024][rng.gen_range(0usize..3)]
            ),
            // Escaped strings in every field the decoder borrows.
            17 => format!(
                r#"{{"op":"decide","session":"f\u00{}","name":"Implementation\u0053tyle","value":"Hard\u0077are"}}"#,
                30 + rng.gen_range(0u32..4)
            ),
            18 => format!(r#"{{"op":"viable","session":"{session}","name":"Algo\u0072ithm"}}"#),
            // Ids whose raw bytes differ from their re-encoding.
            19 => match rng.gen_range(0u32..5) {
                0 => format!(r#"{{"op":"stats","id":{}.5}}"#, rng.gen_range(-100i64..100)),
                1 => r#"{"op":"stats","id":-0}"#.to_owned(),
                2 => r#"{"op":"stats","id":1e3}"#.to_owned(),
                3 => format!(r#"{{"op":"eval","session":"{session}","id":"q\"{i}\\"}}"#),
                _ => format!(r#"{{"op":"close","session":"{session}","id":"\u00e9{i}"}}"#),
            },
            // A walk deep enough to run an estimator, so eval, report
            // and invalidate answer with real figures and cache entries.
            20 => {
                let w = format!("w{}", rng.gen_range(0u32..2));
                for step in [
                    r#""open","session":"{w}","snapshot":"crypto""#,
                    r#""decide","session":"{w}","name":"EOL","value":768"#,
                    r#""decide","session":"{w}","name":"MaxLatencyUs","value":8.0"#,
                    r#""decide","session":"{w}","name":"ModuloIsOdd","value":"Guaranteed""#,
                    r#""decide","session":"{w}","name":"ImplementationStyle","value":"Hardware""#,
                    r#""decide","session":"{w}","name":"Algorithm","value":{"Text":"Montgomery"}"#,
                    r#""decide","session":"{w}","name":"BehavioralDecomposition","value":"use-default""#,
                    r#""eval","session":"{w}""#,
                    r#""report","session":"{w}""#,
                ] {
                    lines.push(format!(r#"{{"op":{}}}"#, step.replace("{w}", &w)));
                }
                if rng.gen_range(0u32..2) == 0 {
                    lines.push(format!(r#"{{"op":"close","session":"{w}"}}"#));
                }
                continue;
            }
            _ => json::encode(&random_tree(&mut rng, 2)),
        };
        lines.push(line);
    }
    // Drain last: every op after a shutdown answers from a draining
    // engine.
    lines.push(r#"{"op":"shutdown","id":"bye"}"#.to_owned());
    lines.push(r#"{"op":"open","session":"late","snapshot":"crypto"}"#.to_owned());
    lines.push(r#"{"op":"stats"}"#.to_owned());
    lines
}

#[test]
fn seeded_protocol_fuzz_decoders_agree_and_responses_are_canonical() {
    assert_decoders_agree_and_responses_are_canonical(&random_protocol_stream(0x5EED_F00D, 600));
}

// ---- frozen transcripts ----------------------------------------------------

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Asserts `answer` reproduces a golden transcript line for line.
fn assert_matches_golden(name: &str, lines: &[String], mut answer: impl FnMut(&str) -> String) {
    let golden = std::fs::read_to_string(golden_path(name)).expect("golden transcript exists");
    let expected: Vec<&str> = golden.lines().collect();
    assert_eq!(
        expected.len(),
        lines.len(),
        "{name}: golden has {} responses for {} requests",
        expected.len(),
        lines.len()
    );
    for (n, (line, want)) in (1..).zip(lines.iter().zip(expected)) {
        assert_eq!(
            answer(line),
            want,
            "{name}: response {n} diverged for {line:?}"
        );
    }
}

fn smoke_script() -> Vec<String> {
    std::fs::read_to_string(golden_path("server_smoke.script"))
        .expect("golden script exists")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

/// The daemon smoke conversation, in process: a journaled engine (as
/// `examples/serve --journal-dir` runs it) must answer the script with
/// the golden transcript byte for byte.
#[test]
fn golden_smoke_conversation_matches_the_golden_transcript() {
    let dir = std::env::temp_dir().join(format!("dse-json-wire-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = dse_server::EngineBuilder::new(techlib::Technology::g10_035())
        .with_shipped_layers()
        .journal_dir(&dir)
        .build()
        .expect("journaled engine builds");
    assert_matches_golden("server_smoke.golden", &smoke_script(), |l| {
        engine.handle_line(l)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The seeded protocol stream's responses, frozen from the engine's
/// former tree-codec response path: every byte the wire answers — cold
/// ops, tagged values, escaped fields, exotic ids, garbage — must stay
/// exactly as it was.
#[test]
fn seeded_protocol_fuzz_matches_the_frozen_golden() {
    let engine = dse_server::EngineBuilder::new(techlib::Technology::g10_035())
        .with_shipped_layers()
        .build()
        .expect("engine builds");
    let lines = random_protocol_stream(0x5EED_F00D, 600);
    assert_matches_golden("wire_fuzz.golden", &lines, |l| engine.handle_line(l));
}

// ---- nesting depth cap ---------------------------------------------------

/// `{"op":"stats",<field>:[[…]]}` with `levels` nested arrays under
/// `field`: the request object is depth 0, so the innermost array sits
/// at depth `levels`.
fn nested_line(field: &str, levels: usize) -> String {
    format!(
        r#"{{"op":"stats","{field}":{}{}}}"#,
        "[".repeat(levels),
        "]".repeat(levels)
    )
}

/// Lines nested past the JSON depth cap (128) answer `DSL301` from
/// either decoder — in a field the hot decoder skips and in one it
/// declines — without a panic or a stack overflow, at the cap's edge
/// and far past it.
#[test]
fn lines_nested_past_the_depth_cap_answer_dsl301() {
    let engine = dse_server::EngineBuilder::new(techlib::Technology::g10_035())
        .with_shipped_layers()
        .build()
        .expect("engine builds");
    for field in ["unknown", "value"] {
        let at_cap = engine.handle_line(&nested_line(field, 128));
        assert!(
            at_cap.starts_with(r#"{"ok":true,"#),
            "{field} at the cap: {at_cap}"
        );
        for levels in [129, 100_000] {
            let response = engine.handle_line(&nested_line(field, levels));
            assert!(
                response.starts_with(r#"{"ok":false,"code":"DSL301","error":"invalid JSON: "#)
                    && response.contains("maximum nesting depth exceeded"),
                "{field} nested {levels} deep: {response}"
            );
        }
    }
}
