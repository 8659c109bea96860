//! The `ontoaccess-cli` console end to end: requests piped over stdin
//! (each ended by an empty line) come back as generated SQL, feedback
//! documents, solution tables and row counts; a `--data-dir` survives a
//! restart; and a missing or malformed flag value stops the binary with
//! exit code 2 instead of falling back to a default.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use sparql_update_rdb::fixtures;

// Run the binary with `args`, feed it `input` on stdin, and wait for it
// to exit (end of input ends the console).
fn run(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ontoaccess-cli"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the console binary starts");
    // A binary that rejects its arguments exits without reading stdin.
    let _ = child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(input.as_bytes());
    child.wait_with_output().expect("the console exits")
}

fn stdout(output: &Output) -> String {
    assert!(output.status.success(), "{output:?}");
    String::from_utf8(output.stdout.clone()).expect("UTF-8 output")
}

const INSERT_GALL: &str = "INSERT DATA { ex:author8 foaf:family_name \"Gall\" . }\n\n";
const SELECT_GALL: &str = "SELECT ?n WHERE { ex:author8 foaf:family_name ?n . }\n\n";

#[test]
fn console_answers_updates_queries_and_commands() {
    let out = stdout(&run(
        &[],
        &format!(
            "{INSERT_GALL}{SELECT_GALL}.tables\n\
             INSERT DATA {{ ex:author9 foaf:firstName \"Ada\" . }}\n\n\
             .sql SELECT lastname FROM author WHERE id = 8;\n\
             .quit\n"
        ),
    ));
    // The update prints its SQL and a confirmation document.
    assert!(out.contains("-- SQL executed:"), "{out}");
    assert!(
        out.contains("INSERT INTO author (id, lastname) VALUES (8, 'Gall');"),
        "{out}"
    );
    assert!(out.contains("fb:Confirmation"), "{out}");
    // The query sees the new row.
    assert!(out.contains("1 solution(s) over ?n"), "{out}");
    assert!(out.contains("\"Gall\""), "{out}");
    // The sample data's two authors plus the new one (after the prompt).
    assert!(
        out.lines().any(|l| l
            .trim_start_matches("> ")
            .split_whitespace()
            .eq(["author", "3", "rows"])),
        "{out}"
    );
    // An author without a family name is rejected with feedback.
    assert!(out.contains("MissingRequiredProperty"), "{out}");
    // Raw SQL reaches the engine.
    assert!(out.contains("lastname\n'Gall'\n(1 row(s))"), "{out}");
}

#[test]
fn data_dir_recovers_committed_updates_on_restart() {
    let dir = fixtures::scratch_dir("cli");
    let dir_arg = dir.to_str().expect("UTF-8 temp path");
    let first = stdout(&run(&["--data-dir", dir_arg], INSERT_GALL));
    assert!(
        first.contains(&format!("data dir {dir_arg}: snapshot")),
        "{first}"
    );
    assert!(first.contains("fb:Confirmation"), "{first}");

    let second = stdout(&run(&["--data-dir", dir_arg], SELECT_GALL));
    assert!(
        second.contains(&format!(
            "data dir {dir_arg}: snapshot 0, 1 commit(s) replayed"
        )),
        "{second}"
    );
    assert!(second.contains("1 solution(s) over ?n"), "{second}");
    assert!(second.contains("\"Gall\""), "{second}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `.sql` answers a SELECT and refuses every other statement, so no
/// change bypasses the write-ahead log: a refused DELETE followed by a
/// logged INSERT DATA leaves the row in place, before and after a
/// restart.
#[test]
fn sql_refuses_a_write_that_would_bypass_the_log() {
    const SELECT_REIF: &str = ".sql SELECT lastname FROM author WHERE id = 7;\n";
    let dir = fixtures::scratch_dir("cli-sql");
    let dir_arg = dir.to_str().expect("UTF-8 temp path");
    let first = stdout(&run(
        &["--data-dir", dir_arg],
        &format!(".sql DELETE FROM author WHERE id = 7;\n{INSERT_GALL}{SELECT_REIF}"),
    ));
    assert!(
        first.contains("refused: .sql runs a SELECT only"),
        "{first}"
    );
    assert!(first.contains("fb:Confirmation"), "{first}");
    assert!(first.contains("lastname\n'Reif'\n(1 row(s))"), "{first}");

    let second = stdout(&run(&["--data-dir", dir_arg], SELECT_REIF));
    assert!(second.contains("lastname\n'Reif'\n(1 row(s))"), "{second}");
    let help = stdout(&run(&[], ".help\n"));
    assert!(help.contains(".sql runs a SELECT"), "{help}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_flag_values_exit_2() {
    for (args, message) in [
        (&["--populate", "abc"][..], "--populate needs"),
        (&["--populate"][..], "--populate needs"),
        (
            &["--populate", "--serve", "127.0.0.1:0"][..],
            "--populate needs",
        ),
        (&["--seed", "abc"][..], "--seed needs"),
        (&["--seed"][..], "--seed needs"),
        (&["--workers", "abc"][..], "--workers needs"),
        (&["--workers", "-1"][..], "--workers needs"),
        (&["--slow-query-ms", "abc"][..], "--slow-query-ms needs"),
        // The slow-query list is a view of the trace store; it has no
        // capacity of its own to set.
        (
            &["--slow-query-capacity", "8"][..],
            "unknown argument \"--slow-query-capacity\"",
        ),
        (&["--serve"][..], "--serve needs"),
        (&["--data-dir"][..], "--data-dir needs"),
        (&["--log-level"][..], "--log-level needs"),
    ] {
        let output = run(args, "");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}
