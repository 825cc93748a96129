//! **atomics-ordering-audit** — `Ordering::Relaxed` and
//! `Ordering::SeqCst` need a written justification.
//!
//! The parallel engines' progress counters and the observers'
//! cancellation flags are correct with `Relaxed` only because of
//! arguments that live outside the type system (values are
//! self-contained, or a later synchronization point orders them). When
//! such an argument is missing the reader cannot tell a deliberate
//! choice from a guess — and `SeqCst` is just as suspect in the other
//! direction: it usually means "I didn't think about it". The audit
//! requires a comment on the same line or within the three lines above
//! each use. `Acquire`/`Release` pairs encode their intent in the type
//! of access and are not audited.

use crate::lexer::find_token;
use crate::lints::{Diagnostic, Lint};
use crate::source::{FileKind, SourceFile};

/// How many lines above the use a justification comment may sit.
const LOOKBACK: usize = 3;

/// See the [module docs](self).
pub struct AtomicsOrderingAudit;

impl Lint for AtomicsOrderingAudit {
    fn name(&self) -> &'static str {
        "atomics-ordering-audit"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if file.kind != FileKind::Library {
            return;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if file.in_test(i + 1) {
                continue;
            }
            for ordering in ["Ordering::Relaxed", "Ordering::SeqCst"] {
                if find_token(&line.code, ordering).is_none() {
                    continue;
                }
                let justified = !line.comment.trim().is_empty()
                    || file.lines[i.saturating_sub(LOOKBACK)..i]
                        .iter()
                        .any(|l| !l.comment.trim().is_empty());
                if !justified {
                    out.push(Diagnostic {
                        rel: file.rel.clone(),
                        line: i + 1,
                        lint: self.name(),
                        msg: format!(
                            "`{ordering}` without a justification comment on this line or \
                             the {LOOKBACK} lines above — say why this ordering is sufficient"
                        ),
                    });
                }
            }
        }
    }
}
