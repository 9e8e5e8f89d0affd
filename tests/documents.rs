//! The documents quote the golden instead of re-typing it. Every
//! ```` ```golden ```` block in README.md, DESIGN.md and EXPERIMENTS.md
//! must be a run of contiguous lines of `reproduce_output.txt`, so a
//! figure that moves fails here until the block is copied again. And no
//! document tells history by pull-request number: CHANGES.md keeps what
//! was, git keeps the rest.

const DOCUMENTS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The ```` ```golden ```` blocks of `text`: the line each opens on
/// (1-based) and its lines. An unclosed block runs to the end.
fn golden_blocks(text: &str) -> Vec<(usize, Vec<&str>)> {
    let mut blocks = Vec::new();
    let mut open: Option<(usize, Vec<&str>)> = None;
    for (at, line) in text.lines().enumerate() {
        match open.as_mut() {
            None if line == "```golden" => open = Some((at + 1, Vec::new())),
            None => {}
            Some(_) if line.starts_with("```") => blocks.extend(open.take()),
            Some((_, lines)) => lines.push(line),
        }
    }
    blocks.extend(open);
    blocks
}

/// The lines of `text` (1-based) on which `PR` or `PRs`, as a word, is
/// followed by a number, also across a line break.
fn pr_numbers(text: &str) -> Vec<usize> {
    text.match_indices("PR")
        .filter(|&(at, _)| {
            let word_starts = !text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
            let rest = &text[at + 2..];
            let rest = rest.strip_prefix('s').unwrap_or(rest);
            word_starts && rest.trim_start().starts_with(|c: char| c.is_ascii_digit())
        })
        .map(|(at, _)| text[..at].matches('\n').count() + 1)
        .collect()
}

/// What is wrong with the document `name`, one line per fault.
fn faults(name: &str, text: &str, golden: &str) -> Vec<String> {
    let golden: Vec<&str> = golden.lines().collect();
    let mut faults: Vec<String> = golden_blocks(text)
        .into_iter()
        .filter(|(_, block)| {
            block.is_empty()
                || !golden
                    .windows(block.len())
                    .any(|run| run == block.as_slice())
        })
        .map(|(line, _)| {
            format!("{name}:{line}: this golden block is not a run of reproduce_output.txt's lines")
        })
        .collect();
    faults.extend(
        pr_numbers(text)
            .into_iter()
            .map(|line| format!("{name}:{line}: names a PR by number")),
    );
    faults
}

#[test]
fn the_documents_quote_the_golden_and_name_no_pr() {
    let read = |file: &str| {
        std::fs::read_to_string(format!("{}/{file}", env!("CARGO_MANIFEST_DIR")))
            .unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    let golden = read("reproduce_output.txt");
    let mut blocks = 0;
    let mut found = Vec::new();
    for name in DOCUMENTS {
        let text = read(name);
        blocks += golden_blocks(&text).len();
        found.extend(faults(name, &text, &golden));
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
    assert!(
        blocks >= 10,
        "only {blocks} golden blocks: the parser lost them"
    );
}

#[test]
fn the_check_refuses_a_changed_digit_a_gap_and_a_pr_number() {
    let golden = "Table 3\n  2 |  1.58\n  3 |  1.96\n  4 |  2.36\n";
    let doc = |body: &str| format!("Prose.\n\n```golden\n{body}```\n\nMore prose.\n");
    assert!(faults("d", &doc("  2 |  1.58\n  3 |  1.96\n"), golden).is_empty());
    assert!(faults("d", &doc(golden), golden).is_empty());

    let changed = faults("d", &doc("  2 |  1.58\n  3 |  1.97\n"), golden);
    assert_eq!(changed.len(), 1, "{changed:?}");
    assert!(changed[0].starts_with("d:3:"), "{changed:?}");
    let gap = faults("d", &doc("  2 |  1.58\n  4 |  2.36\n"), golden);
    assert_eq!(gap.len(), 1, "{gap:?}");
    assert_eq!(faults("d", &doc(""), golden).len(), 1, "an empty block");

    assert_eq!(pr_numbers("one\nas of PR 9 it reads\n"), [2]);
    assert_eq!(pr_numbers("one\nPR 9\n"), [2]);
    assert_eq!(pr_numbers("PRs 52 and\n54"), [1]);
    assert_eq!(pr_numbers("since PR\n12"), [1]);
    assert_eq!(pr_numbers("PR9"), [1]);
    assert!(pr_numbers("a PR, PROCEDURE 9, SPR 3, PRIORITY 2, PR_4").is_empty());
    let numbered = faults("d", "Fixed in PR 9.\n", golden);
    assert_eq!(numbered, ["d:1: names a PR by number"]);
}
