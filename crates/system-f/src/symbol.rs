//! Interned identifiers.
//!
//! Both System F and F_G terms refer to names (variables, type variables,
//! concept names, member names) constantly; interning makes them `Copy`,
//! O(1)-comparable, and cheap to hash. The interner is a process-global
//! table — interned strings are leaked, so `as_str` can hand out
//! `&'static str` without lifetime plumbing. A language-implementation
//! process interns a bounded set of names, so the leak is bounded too.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned string.
///
/// Two `Symbol`s are equal exactly when the strings they intern are equal.
///
/// ```
/// use system_f::Symbol;
///
/// let a = Symbol::intern("accumulate");
/// let b = Symbol::intern("accumulate");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "accumulate");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

struct Interner {
    by_name: HashMap<&'static str, Symbol>,
    names: Vec<&'static str>,
    /// Symbols created by [`Symbol::fresh`], recycled once the pool is
    /// full so long-running processes (benchmark loops, REPLs) do not grow
    /// the interner without bound.
    recycled: Vec<Symbol>,
}

/// How many distinct `fresh` symbols are created before recycling begins.
/// A single compilation never comes close, so uniqueness-within-a-program
/// is preserved; across independent compilations reuse is harmless (every
/// generated name is bound locally in its own output). Names minted under
/// [`Symbol::keep_fresh`] are not counted and never recycled.
const FRESH_POOL: usize = 1 << 20;

thread_local! {
    /// Whether [`Symbol::fresh`] on this thread keeps what it mints out
    /// of recycling (inside [`Symbol::keep_fresh`]).
    static KEEP_FRESH: Cell<bool> = const { Cell::new(false) };
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            by_name: HashMap::new(),
            names: Vec::new(),
            recycled: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its canonical symbol.
    pub fn intern(name: &str) -> Symbol {
        let mut int = interner().lock().expect("interner poisoned");
        if let Some(&sym) = int.by_name.get(name) {
            return sym;
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let sym = Symbol(u32::try_from(int.names.len()).expect("interner overflow"));
        int.names.push(leaked);
        int.by_name.insert(leaked, sym);
        sym
    }

    /// Creates a fresh symbol guaranteed distinct from every symbol interned
    /// so far, with a `base_NN` display name. Used for dictionary names in
    /// the F_G → System F translation (the paper writes `Monoid_67`) and for
    /// capture-avoiding renaming.
    pub fn fresh(base: &str) -> Symbol {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let keep = KEEP_FRESH.get();
        loop {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let mut int = interner().lock().expect("interner poisoned");
            // Once the pool is full, recycle earlier fresh symbols instead
            // of growing the interner forever.
            if !keep && int.recycled.len() >= FRESH_POOL {
                return int.recycled[n as usize % FRESH_POOL];
            }
            let candidate = format!("{base}_{n}");
            if int.by_name.contains_key(candidate.as_str()) {
                continue;
            }
            let leaked: &'static str = Box::leak(candidate.into_boxed_str());
            let sym = Symbol(u32::try_from(int.names.len()).expect("interner overflow"));
            int.names.push(leaked);
            int.by_name.insert(leaked, sym);
            if !keep {
                int.recycled.push(sym);
            }
            return sym;
        }
    }

    /// Runs `f` on this thread with every name [`Symbol::fresh`] mints
    /// kept out of recycling: a recycled name is never one of them. For
    /// names that outlive a compilation, such as those a checker state
    /// kept for reuse has bound; later compilations may then run past the
    /// pool without rebinding them.
    pub fn keep_fresh<R>(f: impl FnOnce() -> R) -> R {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                KEEP_FRESH.set(self.0);
            }
        }
        let _restore = Restore(KEEP_FRESH.replace(true));
        f()
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().lock().expect("interner poisoned").names[self.0 as usize]
    }

    /// The raw interner index, usable as a dense table key.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Symbol::intern("x"), Symbol::intern("x"));
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
    }

    #[test]
    fn as_str_round_trips() {
        let s = Symbol::intern("Monoid");
        assert_eq!(s.as_str(), "Monoid");
    }

    #[test]
    fn fresh_symbols_are_distinct() {
        let a = Symbol::fresh("dict");
        let b = Symbol::fresh("dict");
        assert_ne!(a, b);
        assert!(a.as_str().starts_with("dict_"));
    }

    #[test]
    fn fresh_avoids_existing_names() {
        // Pre-intern a name fresh() might generate; fresh must skip it.
        let a = Symbol::fresh("clash");
        let next_guess = {
            // Intern several upcoming candidates to force skipping.
            let n: u32 = a.as_str()["clash_".len()..].parse().unwrap();
            Symbol::intern(&format!("clash_{}", n + 1))
        };
        let b = Symbol::fresh("clash");
        assert_ne!(b, next_guess);
        assert_ne!(a, b);
    }

    #[test]
    fn kept_names_stay_out_of_the_recycling_pool() {
        let kept = Symbol::keep_fresh(|| {
            let inner = Symbol::keep_fresh(|| Symbol::fresh("kept"));
            assert!(KEEP_FRESH.get(), "a nested call restores the outer state");
            [inner, Symbol::fresh("kept")]
        });
        assert!(!KEEP_FRESH.get());
        let recycled = Symbol::fresh("pooled");
        let int = interner().lock().unwrap();
        assert!(kept.iter().all(|s| !int.recycled.contains(s)));
        assert!(int.recycled.contains(&recycled));
    }

    #[test]
    fn from_str_matches_intern() {
        let s: Symbol = "hello".into();
        assert_eq!(s, Symbol::intern("hello"));
    }
}
