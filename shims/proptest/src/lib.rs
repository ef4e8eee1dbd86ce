//! Offline stand-in for the `proptest` crate.
//!
//! Implements the proptest 1.x API subset the workspace's property tests
//! use — the [`proptest!`] macro, [`strategy::Strategy`] with
//! `prop_map`, range/tuple/[`strategy::Just`]/[`prop_oneof!`] strategies,
//! [`collection::vec`], and the `prop_assert*`/[`prop_assume!`] macros —
//! on top of a deterministic SplitMix64 generator seeded from the test
//! name. There is no shrinking: a failing case panics with the case
//! number and message, and re-running reproduces it exactly.
//!
//! Case count defaults to 64 per property and can be raised with the
//! `PROPTEST_CASES` environment variable, mirroring real proptest. Swap
//! the workspace `proptest` entry back to the registry to use the real
//! crate (shrinking included) when network access is available.

pub mod collection;
pub mod prelude;
pub mod strategy;
pub mod test_runner;

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run(stringify!($name), |__proptest_rng| {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), __proptest_rng);)*
                $body
                ::core::result::Result::Ok(())
            });
        }
    )*};
}

/// Fallible assertion: fails the current case instead of unwinding
/// immediately. The runner reports the failing case's number and this
/// message, not the generated inputs; the inputs are drawn from a seed
/// fixed by the test name, so a rerun reproduces the case exactly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fallible equality assertion, formatting both operands with `{:?}` —
/// after the custom message, when one is given, as `assert_eq!` does.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`: {}\n  left: `{:?}`\n right: `{:?}`",
            format_args!($($fmt)+),
            __l,
            __r
        );
    }};
}

/// Discards the current case (without counting it) when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Chooses uniformly among the given strategies (all must share a value
/// type). Weighted arms are not supported by this shim.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::test_runner::TestCaseError;

    fn failure(case: impl FnOnce() -> Result<(), TestCaseError>) -> String {
        match case() {
            Err(TestCaseError::Fail(message)) => message,
            other => panic!("expected a failed case, got {other:?}"),
        }
    }

    #[test]
    fn prop_assert_eq_prints_both_operands_after_a_custom_message() {
        let message = failure(|| {
            let clients = 4;
            prop_assert_eq!(3 + 4, 8, "depth over {clients} clients");
            Ok(())
        });
        assert_eq!(
            message,
            "assertion failed: `(left == right)`: depth over 4 clients\n  left: `7`\n right: `8`"
        );
        let plain = failure(|| {
            prop_assert_eq!("a", "b");
            Ok(())
        });
        assert!(
            plain.ends_with("  left: `\"a\"`\n right: `\"b\"`"),
            "{plain}"
        );
    }
}
