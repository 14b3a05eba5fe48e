//! Cooperative cancellation for long-running engines.
//!
//! Sweeps and validation campaigns can take minutes on a full grid; a
//! long-running host (the `moard serve` daemon, an interactive driver)
//! needs a way to abandon a job without tearing the process down.  A
//! [`CancelToken`] is the same shape as the atomic DFI-budget flag inside
//! `AdvfAnalyzer`: one shared atomic the engine polls at its natural
//! checkpoints — between sweep tasks, between validation cells and shard
//! rounds — and honors by returning [`MoardError::Cancelled`][cancelled].
//!
//! Cancellation is *cooperative and clean*: a task that already completed is
//! still persisted to the result store before the engine gives up, so a
//! cancelled job resumes from exactly where it stopped, byte-identically.
//!
//! [cancelled]: moard_core::MoardError::Cancelled

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable cancellation flag.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same flag;
/// once [`CancelToken::cancel`] is called there is no way to un-cancel.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation.  Every engine holding a clone of this token
    /// stops at its next checkpoint.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// `Err(MoardError::Cancelled)` once cancelled — the engines' checkpoint
    /// idiom: `token.checkpoint()?;`.
    pub fn checkpoint(&self) -> Result<(), moard_core::MoardError> {
        if self.is_cancelled() {
            Err(moard_core::MoardError::Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_core::MoardError;

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(clone.checkpoint().is_ok());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(matches!(token.checkpoint(), Err(MoardError::Cancelled)));
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }
}
