//! The `reproduce` command line: the section names the documents tell a
//! reader to type are sections, and a name that is not one fails loudly
//! instead of passing with no output.

use std::process::Command;

use ccm2_bench::SECTIONS;

/// The words after each `reproduce -- ` in `text` (to the end of the
/// line or a closing backtick), plus the backticked list that follows a
/// `Sections:` heading.
fn named_sections(text: &str) -> Vec<String> {
    let mut lists: Vec<&str> = text
        .split("reproduce -- ")
        .skip(1)
        .map(|rest| rest.split(['\n', '`']).next().unwrap_or(""))
        .collect();
    if let Some((_, rest)) = text.split_once("Sections: `") {
        lists.push(rest.split('`').next().unwrap_or(""));
    }
    // Prose resumes at the first word that cannot be a section name or
    // a flag.
    let is_argument = |w: &&str| {
        w.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '=')
    };
    lists
        .iter()
        .flat_map(|list| list.split_whitespace().take_while(is_argument))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_documented_section_is_in_the_table() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for doc in ["README.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(format!("{root}/{doc}"))
            .unwrap_or_else(|e| panic!("{doc}: {e}"));
        let named = named_sections(&text);
        assert!(
            named.len() >= SECTIONS.len(),
            "{doc} names only {named:?}: the parser lost the listing"
        );
        for name in named {
            assert!(
                name == "all" || SECTIONS.iter().any(|(section, _)| *section == name),
                "{doc} tells the reader to run `reproduce -- {name}`, which is no section"
            );
        }
    }
}

#[test]
fn an_unknown_section_is_an_error_not_an_empty_pass() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig5", "chaosnett"])
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs beside a typo");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no section `chaosnett`"), "{stderr}");
    for (section, _) in SECTIONS {
        assert!(stderr.contains(section), "the list omits {section}");
    }

    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("fig5")
        .output()
        .expect("run reproduce");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Figure 5:"));
}
