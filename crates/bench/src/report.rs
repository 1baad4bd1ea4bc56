//! `paba report`: one markdown document over every committed artifact.
//!
//! The repo keeps one `BENCH_*.json` golden per gated suite (repro,
//! churn, queueing), each with a versioned schema id. This module folds
//! every artifact in a directory into a single report: an inventory of
//! their provenance, one gate summary per suite, and — the part a human
//! cannot eyeball — **cross-artifact provenance consistency checks**:
//!
//! * hard failures (exit-nonzero): unparseable artifact, unknown schema
//!   id, a provenance block whose embedded schema or seed contradicts the
//!   artifact carrying it;
//! * warnings (reported, non-fatal): missing provenance (artifacts
//!   written before the provenance layer), debug-build measurements,
//!   scratch artifacts (`*_fresh*`) that should not be committed, and
//!   seed disagreement across artifacts.

use std::path::Path;

use paba_repro::json::{parse, Json};
use paba_repro::Artifact;
use paba_util::{schema, Provenance, Table};

/// The gated-suite schemas, which share the layout of [`Artifact`].
const GATED: [&str; 3] = [schema::REPRO, schema::CHURN, schema::QUEUEING];

/// One parsed artifact plus everything the checks derived from it.
#[derive(Debug)]
pub struct ReportArtifact {
    /// File name (not path), e.g. `BENCH_repro.json`.
    pub name: String,
    /// Top-level `"schema"` value (empty when absent).
    pub schema: String,
    /// Parsed provenance block, when present and well-formed.
    pub provenance: Option<Provenance>,
    /// The parsed document.
    pub doc: Json,
    /// The typed artifact, for a gated-suite schema that parses with the
    /// reader `--check` uses.
    pub gated: Option<Artifact>,
}

/// The assembled report.
#[derive(Debug, Default)]
pub struct Report {
    /// Rendered markdown document.
    pub markdown: String,
    /// Artifacts successfully parsed into the report.
    pub artifacts: usize,
    /// Non-fatal consistency findings.
    pub warnings: Vec<String>,
    /// Fatal consistency findings (callers should exit nonzero).
    pub failures: Vec<String>,
}

/// Parse a `"provenance"` block back into [`Provenance`].
///
/// The inverse of [`Provenance::to_json`]; every field is required, so a
/// drifted writer shows up as `Err`, not as a silently partial struct.
pub fn parse_provenance(v: &Json) -> Result<Provenance, String> {
    let s = |key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("provenance missing string '{key}'"))
    };
    let n = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("provenance missing integer '{key}'"))
    };
    Ok(Provenance {
        schema: s("schema")?,
        writer: s("writer")?,
        seed: n("seed")?,
        scale: s("scale")?,
        config_hash: s("config_hash")?,
        threads: n("threads")?,
        build_profile: s("build_profile")?,
        unix_time_s: n("unix_time_s")?,
    })
}

/// List `BENCH_*.json` files in `dir` as `(file_name, contents)`, sorted
/// by name so the report (and its checks) are deterministic.
pub fn collect_dir(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") && entry.path().is_file() {
            let contents = std::fs::read_to_string(entry.path())
                .map_err(|e| format!("reading {name}: {e}"))?;
            files.push((name, contents));
        }
    }
    files.sort();
    Ok(files)
}

/// The one renderer: every gated-suite schema (repro, churn, queueing)
/// shares the gates+metrics layout of [`Artifact`].
fn gates_section(out: &mut String, a: &Artifact) {
    let passed = a.gates.iter().filter(|g| g.passed).count();
    out.push_str(&format!(
        "Theorem gates: **{passed}/{} passed** · {} metrics recorded\n",
        a.gates.len(),
        a.metrics.len()
    ));
    let failing: Vec<&str> = a
        .gates
        .iter()
        .filter(|g| !g.passed)
        .map(|g| g.id.as_str())
        .collect();
    if !failing.is_empty() {
        out.push_str("\nFailing gates:\n");
        for id in failing {
            out.push_str(&format!("- `{id}`\n"));
        }
    }
}

fn section_for(out: &mut String, a: &ReportArtifact) {
    out.push_str(&format!("\n## {} (`{}`)\n\n", a.name, a.schema));
    match &a.gated {
        Some(gated) => gates_section(out, gated),
        None => out.push_str("(no renderer for this schema; see raw artifact)\n"),
    }
}

/// Run the consistency checks over the parsed artifacts, appending to
/// `warnings` / `failures`.
fn check_consistency(
    artifacts: &[ReportArtifact],
    warnings: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    let mut seeds: Vec<(String, u64)> = Vec::new();
    for a in artifacts {
        if !schema::ALL.contains(&a.schema.as_str()) {
            failures.push(format!(
                "{}: unknown schema id {:?} (known: {:?})",
                a.name,
                a.schema,
                schema::ALL
            ));
        }
        if a.name.contains("_fresh") || a.name.contains("_scratch") {
            warnings.push(format!(
                "{}: looks like a regenerated scratch artifact — it should be gitignored, \
                 not committed",
                a.name
            ));
        }
        let top_seed = a.doc.get("seed").and_then(Json::as_u64);
        if let Some(seed) = top_seed {
            seeds.push((a.name.clone(), seed));
        }
        match &a.provenance {
            None => warnings.push(format!(
                "{}: no provenance block (written before the provenance layer?)",
                a.name
            )),
            Some(p) => {
                if p.schema != a.schema {
                    failures.push(format!(
                        "{}: provenance claims schema {:?} but the artifact is {:?}",
                        a.name, p.schema, a.schema
                    ));
                }
                if let Some(seed) = top_seed {
                    if p.seed != seed {
                        failures.push(format!(
                            "{}: provenance seed {} contradicts artifact seed {seed}",
                            a.name, p.seed
                        ));
                    }
                }
                if p.build_profile == "debug" {
                    warnings.push(format!(
                        "{}: measured by a debug build — timings are not comparable",
                        a.name
                    ));
                }
            }
        }
    }
    let mut distinct: Vec<u64> = seeds.iter().map(|&(_, s)| s).collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > 1 {
        warnings.push(format!(
            "artifacts use {} different master seeds ({}): cross-artifact comparisons span runs",
            distinct.len(),
            seeds
                .iter()
                .map(|(n, s)| format!("{n}={s}"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
}

/// Build the report from `(file_name, contents)` pairs (see
/// [`collect_dir`]).
pub fn build_report(files: &[(String, String)]) -> Report {
    let mut warnings = Vec::new();
    let mut failures = Vec::new();
    let mut artifacts = Vec::new();
    for (name, contents) in files {
        let doc = match parse(contents) {
            Ok(doc) => doc,
            Err(e) => {
                failures.push(format!("{name}: unparseable JSON: {e}"));
                continue;
            }
        };
        let doc_schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        // Gated-suite artifacts go through the typed reader `--check`
        // uses; provenance still comes from the raw document, since
        // `Artifact` does not carry it.
        let gated = if GATED.contains(&doc_schema.as_str()) {
            match Artifact::from_json_expecting(contents, &doc_schema) {
                Ok(a) => Some(a),
                Err(e) => {
                    failures.push(format!("{name}: invalid artifact: {e}"));
                    None
                }
            }
        } else {
            None
        };
        let provenance = match doc.get("provenance") {
            None | Some(Json::Null) => None,
            Some(p) => match parse_provenance(p) {
                Ok(p) => Some(p),
                Err(e) => {
                    failures.push(format!("{name}: malformed provenance block: {e}"));
                    None
                }
            },
        };
        artifacts.push(ReportArtifact {
            name: name.clone(),
            schema: doc_schema,
            provenance,
            doc,
            gated,
        });
    }
    check_consistency(&artifacts, &mut warnings, &mut failures);

    let mut md = String::from("# paba benchmark report\n\n");
    if artifacts.is_empty() {
        md.push_str("No `BENCH_*.json` artifacts found.\n");
    } else {
        let mut inv = Table::new([
            "artifact",
            "schema",
            "seed",
            "scale",
            "threads",
            "build",
            "written (unix)",
        ]);
        for a in &artifacts {
            let p = a.provenance.as_ref();
            let seed = a
                .doc
                .get("seed")
                .and_then(Json::as_u64)
                .map_or("-".into(), |s| s.to_string());
            inv.push_row([
                a.name.clone(),
                a.schema.clone(),
                seed,
                p.map_or("-".into(), |p| p.scale.clone()),
                p.map_or("-".into(), |p| p.threads.to_string()),
                p.map_or("-".into(), |p| p.build_profile.clone()),
                p.map_or("-".into(), |p| p.unix_time_s.to_string()),
            ]);
        }
        md.push_str(&inv.to_markdown());
        for a in &artifacts {
            section_for(&mut md, a);
        }
    }

    md.push_str("\n## Provenance consistency\n\n");
    if warnings.is_empty() && failures.is_empty() {
        md.push_str("- ok: all artifacts carry consistent provenance\n");
    }
    for w in &warnings {
        md.push_str(&format!("- warning: {w}\n"));
    }
    for f in &failures {
        md.push_str(&format!("- FAIL: {f}\n"));
    }

    Report {
        markdown: md,
        artifacts: artifacts.len(),
        warnings,
        failures,
    }
}

/// [`collect_dir`] + [`build_report`] in one call.
pub fn report_dir(dir: &Path) -> Result<Report, String> {
    Ok(build_report(&collect_dir(dir)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_repro::{Artifact, Gate, Metric, SCHEMA};

    fn tiny_repro() -> String {
        Artifact {
            schema: SCHEMA.into(),
            seed: 3,
            scale: "quick".into(),
            gates: vec![Gate {
                id: "g/a".into(),
                passed: true,
                statistic: 9.0,
                threshold: 4.0,
                p_false_pass: 3.4e-4,
                detail: "d".into(),
            }],
            metrics: vec![Metric {
                id: "m/a".into(),
                mean: 1.0,
                std_err: 0.1,
                runs: 8,
            }],
        }
        .to_json()
    }

    fn tiny_churn() -> String {
        Artifact {
            schema: schema::CHURN.into(),
            seed: 3,
            scale: "quick".into(),
            gates: vec![Gate {
                id: "churn/repair-on/max-load-noninferior".into(),
                passed: true,
                statistic: 1.2,
                threshold: -2.0,
                p_false_pass: f64::NAN,
                detail: "d".into(),
            }],
            metrics: vec![Metric {
                id: "churn/static/max_load".into(),
                mean: 6.5,
                std_err: 0.2,
                runs: 8,
            }],
        }
        .to_json()
    }

    fn tiny_queueing() -> String {
        Artifact {
            schema: schema::QUEUEING.into(),
            seed: 3,
            scale: "quick".into(),
            gates: vec![Gate {
                id: "queueing/pow-of-d/p99-collapse".into(),
                passed: true,
                statistic: 8.4,
                threshold: 3.0,
                p_false_pass: f64::NAN,
                detail: "d".into(),
            }],
            metrics: vec![Metric {
                id: "queueing/two_choice/p99".into(),
                mean: 4.2,
                std_err: 0.3,
                runs: 8,
            }],
        }
        .to_json()
    }

    #[test]
    fn provenance_round_trip() {
        let p = Provenance::capture(schema::QUEUEING, 99, "default", "cfg x=1 y=2");
        let doc = parse(&p.to_json()).expect("provenance JSON parses");
        let back = parse_provenance(&doc).expect("all fields present");
        assert_eq!(back, p);
    }

    #[test]
    fn report_over_all_writers_is_clean() {
        let files = vec![
            ("BENCH_churn.json".to_string(), tiny_churn()),
            ("BENCH_queueing.json".to_string(), tiny_queueing()),
            ("BENCH_repro.json".to_string(), tiny_repro()),
        ];
        let r = build_report(&files);
        assert_eq!(r.artifacts, 3);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        // Under `cargo test` the writers stamp build_profile = debug, which
        // is a legitimate warning; nothing else should fire.
        assert!(
            r.warnings.iter().all(|w| w.contains("debug build")),
            "{:?}",
            r.warnings
        );
        assert!(r.markdown.contains("# paba benchmark report"));
        assert!(r.markdown.contains("paba-repro/1"));
        assert!(r.markdown.contains("paba-churn/1"));
        assert!(r.markdown.contains("paba-queueing/1"));
        assert!(!r.markdown.contains("no renderer for this schema"));
        // One renderer serves all three gated-suite schemas.
        assert_eq!(
            r.markdown.matches("Theorem gates: **1/1 passed**").count(),
            3
        );
        assert!(!r.markdown.contains("- FAIL:"));
    }

    #[test]
    fn schema_registry_agrees_with_writers() {
        // The report reader dispatches on paba_util::schema; every writer
        // must emit exactly those ids.
        for (json, want) in [
            (tiny_repro(), schema::REPRO),
            (tiny_churn(), schema::CHURN),
            (tiny_queueing(), schema::QUEUEING),
        ] {
            let doc = parse(&json).unwrap();
            assert_eq!(doc.get("schema").and_then(Json::as_str), Some(want));
            let prov = doc
                .get("provenance")
                .expect("every writer stamps provenance");
            assert_eq!(prov.get("schema").and_then(Json::as_str), Some(want));
        }
    }

    #[test]
    fn provenance_schema_mismatch_is_a_failure() {
        let doctored = tiny_repro().replacen(
            "\"provenance\": {\"schema\": \"paba-repro/1\"",
            "\"provenance\": {\"schema\": \"paba-churn/1\"",
            1,
        );
        let r = build_report(&[("BENCH_repro.json".into(), doctored)]);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("provenance claims schema"));
        assert!(r.markdown.contains("- FAIL:"));
    }

    #[test]
    fn provenance_seed_mismatch_is_a_failure() {
        let doctored = tiny_repro().replacen("\"seed\": 3, \"scale\"", "\"seed\": 4, \"scale\"", 1);
        let r = build_report(&[("BENCH_repro.json".into(), doctored)]);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("contradicts artifact seed")),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn missing_provenance_and_fresh_name_warn_but_do_not_fail() {
        let legacy = r#"{"schema": "paba-repro/1", "seed": 1, "scale": "quick", "gates": [], "metrics": []}"#;
        let r = build_report(&[("BENCH_repro_fresh.json".into(), legacy.to_string())]);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.warnings.len(), 2, "{:?}", r.warnings);
        assert!(r.warnings.iter().any(|w| w.contains("no provenance")));
        assert!(r.warnings.iter().any(|w| w.contains("scratch artifact")));
    }

    #[test]
    fn malformed_gated_artifact_is_a_failure() {
        // Provenance intact, but no `gates` array and non-array
        // `metrics`: `--check` rejects this, so the report must too.
        let prov = Provenance::capture(schema::REPRO, 3, "quick", "x").to_json();
        let bad = format!(
            r#"{{"schema": "paba-repro/1", "seed": 3, "scale": "quick", "metrics": "oops", "provenance": {prov}}}"#
        );
        assert!(Artifact::from_json_expecting(&bad, schema::REPRO).is_err());
        let r = build_report(&[("BENCH_repro.json".into(), bad)]);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("'gates'"), "{:?}", r.failures);
        assert!(!r.markdown.contains("Theorem gates"), "{}", r.markdown);
        assert!(!r.markdown.contains("- ok:"), "{}", r.markdown);
        assert!(r.markdown.contains("- FAIL:"), "{}", r.markdown);
    }

    #[test]
    fn unknown_schema_and_bad_json_are_failures() {
        let r = build_report(&[
            ("BENCH_alien.json".into(), r#"{"schema": "alien/7"}"#.into()),
            ("BENCH_broken.json".into(), "{not json".into()),
        ]);
        assert_eq!(r.failures.len(), 2, "{:?}", r.failures);
    }

    #[test]
    fn seed_disagreement_across_artifacts_warns() {
        let a = tiny_repro();
        let b = tiny_repro()
            .replace("\"seed\": 3,", "\"seed\": 5,")
            .replace("\"seed\": 3, \"scale\"", "\"seed\": 5, \"scale\"");
        let r = build_report(&[("BENCH_a.json".into(), a), ("BENCH_b.json".into(), b)]);
        assert!(
            r.warnings
                .iter()
                .any(|w| w.contains("different master seeds")),
            "{:?}",
            r.warnings
        );
    }

    #[test]
    fn committed_artifacts_report_clean() {
        // The goldens at the workspace root are what `paba report --dir .`
        // reads: each must carry a provenance block that agrees with it.
        // Gitignored scratch artifacts a local `--check` run may leave
        // beside them are not part of the committed set.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let committed: Vec<_> = collect_dir(&root)
            .expect("workspace root is readable")
            .into_iter()
            .filter(|(name, _)| !name.contains("_fresh") && !name.contains("_stress"))
            .collect();
        let r = build_report(&committed);
        assert_eq!(r.artifacts, 3, "one golden per gated suite");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r
            .markdown
            .contains("- ok: all artifacts carry consistent provenance"));
    }

    #[test]
    fn collect_dir_picks_bench_json_only() {
        let dir = std::env::temp_dir().join("paba-report-collect-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_b.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_a.json"), "{}").unwrap();
        std::fs::write(dir.join("other.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_not_json.txt"), "x").unwrap();
        let files = collect_dir(&dir).unwrap();
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["BENCH_a.json", "BENCH_b.json"]);
    }
}
