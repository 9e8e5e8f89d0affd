//! Seeded token mutations of suite modules, shared by the test binaries
//! that compile them: a token of a body deleted, duplicated or swapped
//! with its successor.

use ccm2_support::source::SourceMap;
use ccm2_support::Interner;

/// One step of the splitmix64 generator the mutation tests draw from.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `source` with the token at `spans[at]` deleted (`op` 0), duplicated
/// (1) or swapped with the token after it (2; deleted instead when the
/// next token of `spans` is not its neighbour).
pub fn mutate(source: &str, spans: &[(usize, usize)], at: usize, op: u64) -> String {
    let (lo, hi) = spans[at];
    let (nlo, nhi) = spans[at + 1];
    let (tok, next) = (&source[lo..hi], &source[nlo..nhi]);
    match op {
        0 => format!("{} {}", &source[..lo], &source[hi..]),
        1 => format!("{} {tok}{}", &source[..hi], &source[hi..]),
        // Tokens with more than blanks between them are not neighbours.
        _ if !source[hi..nlo].trim().is_empty() => format!("{} {}", &source[..lo], &source[hi..]),
        _ => format!(
            "{}{next} {} {tok}{}",
            &source[..lo],
            &source[hi..nlo],
            &source[nhi..]
        ),
    }
}

/// Byte spans of the tokens of `source` inside a module or procedure
/// body: from the token after its `BEGIN` through the `END` that closes
/// its scope, in source order.
pub fn body_token_spans(source: &str) -> Vec<(usize, usize)> {
    use ccm2_syntax::token::TokenKind;
    let map = SourceMap::new();
    let file = map.add("M.mod", source);
    let sink = ccm2_support::DiagnosticSink::new();
    let tokens = ccm2_syntax::lex_file(&file, &Interner::new(), &sink);
    // One entry per open scope: its depth of open END-closed blocks, and
    // whether its body has begun.
    let mut scopes = vec![(0i64, false)];
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let declares = matches!(tokens.get(i + 1).map(|t| t.kind), Some(TokenKind::Ident(_)));
        let Some((depth, in_body)) = scopes.last_mut() else {
            break;
        };
        if *in_body {
            out.push((t.span.lo as usize, t.span.hi as usize));
        }
        match t.kind {
            TokenKind::Procedure if declares && !*in_body => scopes.push((0, false)),
            TokenKind::Begin if *depth == 0 => *in_body = true,
            TokenKind::End if *depth == 0 => {
                scopes.pop();
            }
            TokenKind::End => *depth -= 1,
            TokenKind::Module => {}
            k if k.opens_end_block() => *depth += 1,
            _ => {}
        }
    }
    out
}
