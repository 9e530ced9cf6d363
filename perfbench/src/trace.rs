//! Spans recorded from the benchmark's side of each call into a layer.
//!
//! A [`Tracer`] is a cheap shared handle: the workload code wraps every
//! call into a layer in [`Tracer::span`]. Spans nest; a finished
//! span charges its *self time* (its duration minus the time its child
//! spans cover) to its name, so the busy times of all layers add up to
//! the traced stage time without double counting. A disabled tracer
//! records nothing, which is the untraced run the overhead is measured
//! against.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// An open span: its name, its start, and the time its children took.
struct Open {
    name: &'static str,
    start: Instant,
    child_secs: f64,
}

#[derive(Default)]
struct Inner {
    stack: Vec<Open>,
    busy: BTreeMap<&'static str, f64>,
}

/// A shared span recorder; clones record into the same trace.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl Tracer {
    /// A recorder that keeps spans.
    pub fn enabled() -> Tracer {
        Tracer { inner: Some(Rc::new(RefCell::new(Inner::default()))) }
    }

    /// A recorder that drops everything (the untraced run).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Open a span named `name` inside the innermost open span.
    fn enter(&self, name: &'static str) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().stack.push(Open { name, start: Instant::now(), child_secs: 0.0 });
        }
    }

    /// Close the innermost open span and charge its self time.
    fn exit(&self) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let open = inner.stack.pop().expect("exit matches an enter");
            let secs = open.start.elapsed().as_secs_f64();
            if let Some(parent) = inner.stack.last_mut() {
                parent.child_secs += secs;
            }
            *inner.busy.entry(open.name).or_default() += secs - open.child_secs;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time per span name, seconds.
    pub fn busy(&self) -> BTreeMap<&'static str, f64> {
        self.inner.as_ref().map(|i| i.borrow().busy.clone()).unwrap_or_default()
    }
}

/// FNV-1a 64 of a whole file (the digest `dq_job` journals use), as 16
/// hex digits.
pub fn digest_file(path: &std::path::Path) -> std::io::Result<String> {
    Ok(format!("{:016x}", dq_job::fnv1a(&std::fs::read(path)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_charge_self_time() {
        let t = Tracer::enabled();
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(20)))
        });
        let busy = t.busy();
        assert!(busy["inner"] >= 0.02);
        assert!(busy["outer"] < busy["inner"], "{busy:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.span("x", || ());
        assert!(t.busy().is_empty());
    }
}
